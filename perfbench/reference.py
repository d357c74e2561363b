"""Reference kernel that tracks the machine's current speed.

On a shared machine, other jobs slow pure-Python code by 15-40 % for
seconds to minutes at a time, while the CPU time still equals the wall
time.  The benchmark times this fixed kernel after every solve, once per
started half second of solving.  The kernel is an integer loop plus
networkx's bridge search (dictionary-heavy pure Python, like the solver).
It takes about 16 ms on an idle 2-core cloud VM and 22-25 ms on a loaded
one.  The kernel is part of the benchmark, so a change to the solver
cannot change it.

Solve times are scaled by the square root of (nominal kernel time /
measured kernel time).  Over 49 runs of the three workloads on such a VM,
log(solve time) moved 0.28-0.69 times as much as log(kernel time) from run
to run, 0.53 on average: the solver feels about half of the slow-down the
kernel feels.  Dividing by the full kernel time over-corrected the
workloads that feel least; the square root roughly halved the run-to-run
spread of the dense and three-cut totals and left the sparse one about as
steady as the raw seconds.

Set-up (import and graph building, about 0.1 s) is scaled by the full ratio,
with the kernel timed just before each set-up.  Between two sets of ten
runs on identical inputs, its raw median moved 28 %; scaled by the run's
kernel time, 21 % with the square root and 12 % with the full ratio.
Short import and allocation work slows like the kernel.
"""

from __future__ import annotations

import statistics
import time

import networkx as nx

NOMINAL_SECONDS = 0.016     # kernel time on an idle 2-core cloud VM


class Reference:
    def __init__(self):
        self.graph = nx.gnm_random_graph(400, 1200, seed=3)
        self.samples = []

    def sample(self) -> float:
        """Time one run of the kernel; keep and return the time."""
        t0 = time.perf_counter()
        total = 0
        for i in range(100_000):
            total += i * i
        for _bridge in nx.bridges(self.graph):
            pass
        self.samples.append(time.perf_counter() - t0)
        return self.samples[-1]

    def seconds(self) -> float:
        """Median time of one kernel run so far."""
        return statistics.median(self.samples)

    def scale(self) -> float:
        """Factor that takes solve seconds measured in this run to seconds
        at the nominal machine speed."""
        return (NOMINAL_SECONDS / self.seconds()) ** 0.5
