#!/usr/bin/env python3
"""Benchmark of the twoec solver.

    python3 perfbench/run.py --workload dense-random --seed 1 --seconds 30 --trace 0

Builds the workload's graphs from the seed, then solves them back to back in
this one process and thread (a closed loop with one client) with the
default `PipelineConfig()` the CLI uses, in as many whole rounds as fit in
--seconds (at least one; two with --trace 1).  Every solution is checked
with networkx.

Times are reported scaled to a nominal machine speed measured with a fixed
reference kernel in the same run (see reference.py), which cancels much of
the slow-down other jobs on the machine cause.  --trace 0 prints the
end-to-end metrics; --trace 1 alternates untraced rounds with rounds whose
library calls are wrapped in spans and prints the per-layer metrics.  The
solver is imported from the src/ directory beside this one; without it the
run fails before printing a result.  Human-readable detail goes to standard
error; the last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(ROOT))

from perfbench import layers, selftest                      # noqa: E402
from perfbench.check import check_solution, digest          # noqa: E402
from perfbench.reference import NOMINAL_SECONDS, Reference  # noqa: E402
from perfbench.spans import Recorder, patched               # noqa: E402
from perfbench.workloads import WORKLOADS                   # noqa: E402

SETUP_REPEATS = 11

END_TO_END_UNITS = {
    "wall_norm_s": "s", "tail_norm_s": "s", "solved_frac": "frac",
    "edges_per_vertex": "ratio", "uncertified_frac": "frac",
    "peak_rss_mb": "MB", "setup_s": "s",
}


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def load_twoec():
    """Import twoec afresh from SRC, dropping any earlier import of it."""
    for name in [m for m in sys.modules
                 if m == "twoec" or m.startswith("twoec.")]:
        del sys.modules[name]
    twoec = importlib.import_module("twoec")
    if Path(twoec.__file__).resolve().parent != SRC / "twoec":
        raise ImportError(f"twoec was imported from {twoec.__file__}")
    return twoec


def setup(build, reference):
    """Import the solver and build the workload SETUP_REPEATS times; return
    the last import, its graphs and the median set-up time, each scaled by
    the reference kernel timed just before it (see reference.py)."""
    times = []
    for _ in range(SETUP_REPEATS):
        kernel = reference.sample()
        t0 = time.perf_counter()
        twoec = load_twoec()
        instances = build()
        times.append((time.perf_counter() - t0) * NOMINAL_SECONDS / kernel)
    return twoec, instances, statistics.median(times)


class Session:
    """Solves the instances round after round.  Per instance it keeps every
    solve's time and the outcome of the first solve; after every solve it
    times the reference kernel, once per started half second of solving."""

    def __init__(self, twoec, instances, reference):
        self.twoec = twoec
        self.instances = instances
        self.reference = reference
        self.seconds = {False: [[] for _ in instances],
                        True: [[] for _ in instances]}   # keyed by traced
        self.outcomes = [None] * len(instances)
        self.reports = [None] * len(instances)
        self.rejected = set()
        self.attempted = 0
        self.failed = 0
        self.correct = True

    def solve(self, i, traced):
        _label, g = self.instances[i]
        cfg = self.twoec.pipeline.PipelineConfig()
        gc.collect()
        t0 = time.perf_counter()
        try:
            report = self.twoec.pipeline.run_pipeline(g, cfg)
        except Exception as exc:   # a failed solve is counted, not fatal
            elapsed = time.perf_counter() - t0
            outcome, report = f"failed:{type(exc).__name__}", None
            if self.outcomes[i] is None:
                log(f"instance {i} failed: "
                    + "".join(traceback.format_exception_only(exc)).strip())
        else:
            elapsed = time.perf_counter() - t0
            outcome = ",".join(map(str, report["solution"]["edges"]))
        self.seconds[traced][i].append(elapsed)
        for _ in range(1 + int(elapsed / 0.5)):
            self.reference.sample()
        self.attempted += 1
        if self.outcomes[i] is None:
            self.outcomes[i], self.reports[i] = outcome, report
            if report is not None:
                reason = check_solution(g, report["solution"]["edges"])
                if reason is not None:
                    log(f"instance {i} rejected: {reason}")
                    self.rejected.add(i)
                    self.correct = False
        elif outcome != self.outcomes[i]:
            log(f"instance {i} gave a different output on a later solve")
            self.correct = False
            self.rejected.add(i)
        if report is None or i in self.rejected:
            self.failed += 1

    def round(self, traced):
        self.reference.sample()
        for i in range(len(self.instances)):
            self.solve(i, traced)


def per_instance(samples):
    """One value per instance: the median of its solves in this run."""
    return [statistics.median(s) for s in samples]


def end_to_end(session, setup_s):
    ok = [i for i, r in enumerate(session.reports)
          if r is not None and i not in session.rejected]
    reports = [session.reports[i] for i in ok]
    scale = session.reference.scale()
    cost = sorted(t * scale for t in per_instance(session.seconds[False]))
    tail = cost[-math.ceil(len(cost) / 4):]
    n_total = sum(session.instances[i][1].n for i in ok)
    values = {
        "wall_norm_s": sum(cost),
        "tail_norm_s": sum(tail) / len(tail),
        "solved_frac": 1 - session.failed / session.attempted,
        "edges_per_vertex": (sum(r["solution"]["size"] for r in reports)
                             / n_total if n_total else 0.0),
        "uncertified_frac": (sum(not r["certified"] for r in reports)
                             / len(reports) if reports else 0.0),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
        "setup_s": setup_s,
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]}
            for k, v in values.items()}


def run(args):
    if args.trace:
        selftest.check()
    build = WORKLOADS[args.workload]
    reference = Reference()
    twoec, instances, setup_s = setup(lambda: build(args.seed), reference)
    session = Session(twoec, instances, reference)
    rec = Recorder()
    layer_rounds = []
    start = time.perf_counter()
    rounds = 0
    while True:
        round_start = time.perf_counter()
        if args.trace and rounds % 2 == 1:
            rec.reset()
            with patched(layers.probes(rec, twoec)):
                session.round(traced=True)
            layer_rounds.append(layers.round_metrics(rec))
        else:
            session.round(traced=False)
        rounds += 1
        now = time.perf_counter()
        # start another round only if it should end within --seconds
        if (now - start) + (now - round_start) > args.seconds and (
                rounds >= 2 or not args.trace):
            break

    seconds = per_instance(session.seconds[False])
    for i, (label, g) in enumerate(instances):
        report = session.reports[i]
        size = report["solution"]["size"] if report else session.outcomes[i]
        log(f"{i:3d} {label:30s} n={g.n:3d} m={g.m:4d} {seconds[i]:7.3f} s "
            f"size={size}")
    log(f"rounds={rounds} wall={sum(seconds):.3f} s setup={setup_s:.4f} s "
        f"reference={1000 * session.reference.seconds():.2f} ms")
    print(f"digest {args.workload} seed={args.seed} "
          f"{digest(session.outcomes)}")

    if args.trace:
        traced = sum(per_instance(session.seconds[True]))
        metrics = {"trace.overhead_frac": {
            "value": (traced - sum(seconds)) / sum(seconds), "unit": "frac"}}
        for metric, unit in layers.PER_LAYER:
            if metric not in metrics:
                metrics[metric] = {"value": statistics.median(
                    r[metric] for r in layer_rounds), "unit": unit}
        metrics = {m: metrics[m] for m, _unit in layers.PER_LAYER}
        for label, t, share in layers.shares(rec):
            log(f"  self {label:24s} {t:8.3f} s {100 * share:5.1f} %")
    else:
        metrics = end_to_end(session, setup_s)
    return {"correct": session.correct, "attempted": session.attempted,
            "failed": session.failed, "metrics": metrics}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "twoec" / "__init__.py").is_file():
        log(f"error: the solver sources are missing: {SRC / 'twoec'}")
        return 2
    sys.path.insert(0, str(SRC))
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
