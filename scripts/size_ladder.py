#!/usr/bin/env python3
"""Solve three sparse families at n = 100, 300 and 1,000 through the twoec
command line, one subprocess per instance and one at a time, and print one
row per instance: family, n, exit code (or "timeout"), seconds and
solution size / n.

The families are the plain cycle C_n, `cycle-ring` with k = n / 5 cycles of
length 5 (the CLI's own generator, seed 0) and the wheel W_n (a hub joined
to every vertex of an (n - 1)-cycle).  The cycle and the wheel are
Hamiltonian, so size/n is 1.000 at their optimum.  The solver is run from
the src/ directory beside this script.

Example:
  python3 scripts/size_ladder.py --timeout 60
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
SIZES = (100, 300, 1000)


def graph_text(n, edges):
    return "".join([f"{n} {len(edges)}\n"] + [f"{u} {v}\n" for u, v in edges])


def ladder():
    """(family, n, CLI arguments, standard input) for every instance."""
    for n in SIZES:
        cycle = [(i, (i + 1) % n) for i in range(n)]
        yield "cycle", n, ["-"], graph_text(n, cycle)
        yield ("cycle-ring", n,
               ["--family", "cycle-ring", "--k", str(n // 5), "--cyclen", "5"],
               "")
        rim = range(1, n)
        wheel = [(0, v) for v in rim] + [(v, v % (n - 1) + 1) for v in rim]
        yield "wheel", n, ["-"], graph_text(n, wheel)


def main():
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--timeout", type=float, default=60.0,
                    help="seconds allowed per instance (default 60)")
    args = ap.parse_args()

    env = dict(os.environ, PYTHONPATH=str(SRC))
    print("family\tn\texit\tseconds\tsize/n")
    for family, n, cli_args, stdin in ladder():
        start = time.perf_counter()
        try:
            run = subprocess.run([sys.executable, "-m", "twoec.cli", *cli_args],
                                 input=stdin, capture_output=True, text=True,
                                 env=env, timeout=args.timeout)
        except subprocess.TimeoutExpired:
            status, ratio = "timeout", "-"
        else:
            status, ratio = str(run.returncode), "-"
            if run.returncode == 0:
                size = json.loads(run.stdout)["solution"]["size"]
                ratio = f"{size / n:.3f}"
        seconds = time.perf_counter() - start
        print(f"{family}\t{n}\t{status}\t{seconds:.1f}\t{ratio}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
