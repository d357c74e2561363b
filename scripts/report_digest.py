#!/usr/bin/env python3
"""Print one sha256 per instance family, and one over all of them, of the
traced JSON reports the solver writes with the oracle off.

Two checkouts that print the same lines give byte-identical solutions,
notes, certified flags and reduction traces on every instance.  The
families are those of `run_corpus.instances` (random-2ec, cycle-ring,
glued-cliques), the wheels W_10-W_60 in steps of 5 (a hub joined to every
vertex of a cycle, n vertices in all), the glue family and the three timed
benchmark workloads (dense-random, sparse-chains, three-cut) built at each
--workload-seed in turn; with several seeds each workload's line covers all
of them.  The glue family holds cubic graphs whose leaves take glue steps
of every kind: the generalized Petersen graphs GP(n, k) for even n from 10
to 26 and 1 <= k < n/2 (72 graphs), then the Pappus, Desargues,
Moebius-Kantor, dodecahedral and Heawood graphs.  The solver is imported
from the src/ directory beside this script.

Examples:
  python3 scripts/report_digest.py --max-n 20 --seeds 2 --workload-seed 301
  python3 scripts/report_digest.py --workload-seed 301 302 303 304 305 306
"""

import argparse
import hashlib
import sys
from pathlib import Path

import networkx as nx

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.workloads import WORKLOADS                      # noqa: E402
from run_corpus import instances                               # noqa: E402
from twoec.graph import MultiGraph                             # noqa: E402
from twoec.pipeline import (PipelineConfig, run_pipeline,      # noqa: E402
                            serialize_report)

TIMED_WORKLOADS = ("dense-random", "sparse-chains", "three-cut")


def wheel(n):
    """W_n: hub 0 joined to every vertex of the cycle 1 .. n - 1."""
    rim = range(1, n)
    return MultiGraph(n, [(0, v) for v in rim] + [(v, v % (n - 1) + 1)
                                                  for v in rim])


def from_networkx(gx):
    """The MultiGraph of gx, vertices numbered in gx's node order and edges
    added in sorted order."""
    gx = nx.convert_node_labels_to_integers(gx)
    return MultiGraph(gx.number_of_nodes(), sorted(gx.edges()))


def generalized_petersen(n, k):
    """GP(n, k): outer cycle 0 .. n - 1, spokes i - (n + i) and the inner
    star polygon (n + i) - (n + (i + k) mod n), renumbered in the order the
    vertices are first named."""
    gp = nx.Graph()
    for i in range(n):
        gp.add_edge(i, (i + 1) % n)
        gp.add_edge(i, n + i)
        gp.add_edge(n + i, n + (i + k) % n)
    return from_networkx(gp)


def glue_graphs():
    """(label, graph) for the glue family."""
    for n in range(10, 27, 2):
        for k in range(1, n // 2):
            yield f"glue/GP{n}-{k}", generalized_petersen(n, k)
    for name in ("pappus", "desargues", "moebius_kantor", "dodecahedral",
                 "heawood"):
        yield f"glue/{name}", from_networkx(getattr(nx, name + "_graph")())


def families(max_n, seeds, workload_seeds):
    """(family, label, graph) for every instance, family by family."""
    for name, g in instances(max_n, seeds):
        yield name.split("/")[0], name, g
    for n in range(10, 61, 5):
        yield "wheels", f"wheels/W{n}", wheel(n)
    for label, g in glue_graphs():
        yield "glue", label, g
    for w in TIMED_WORKLOADS:
        for seed in workload_seeds:
            for label, g in WORKLOADS[w](seed):
                yield w, label, g


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--max-n", type=int, default=20,
                    help="largest corpus instance (default 20)")
    ap.add_argument("--seeds", type=int, default=2,
                    help="corpus seeds per size (default 2)")
    ap.add_argument("--workload-seed", type=int, nargs="+", default=[301],
                    help="workload seeds (default 301)")
    args = ap.parse_args()

    cfg = PipelineConfig(oracle_mode="off", trace=True)
    overall = hashlib.sha256()
    per_family = {}
    for family, label, g in families(args.max_n, args.seeds,
                                     args.workload_seed):
        text = serialize_report(run_pipeline(g, cfg))
        line = f"{family}\t{label}\t{text}".encode()
        per_family.setdefault(family, hashlib.sha256()).update(line)
        overall.update(line)
    for family, h in per_family.items():
        print(f"{family}\t{h.hexdigest()}")
    print(f"overall\t{overall.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
