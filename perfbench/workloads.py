"""Seeded workload generators.

Every workload is a list of (label, MultiGraph) built only from the seed: the
graphs are drawn with a seeded generator and their vertex labels are then
permuted with the same seed.  The solver sees nothing but the graphs.
The comment on each generator says why the workload exists and which layer
it loads.  `twoec` is imported inside the functions because set-up
re-imports it before every build.
"""

from __future__ import annotations

import random


def _relabel(g, rng):
    """Copy of g with vertex labels permuted by rng; edge order is kept."""
    from twoec.graph import MultiGraph
    perm = list(range(g.n))
    rng.shuffle(perm)
    out = MultiGraph(g.n)
    for _eid, u, v in g.edges:
        out.add_edge(perm[u], perm[v])
    return out


def _cycle(n, copies=1):
    from twoec.graph import MultiGraph
    g = MultiGraph(n)
    for i in range(n):
        for _ in range(copies):
            g.add_edge(i, (i + 1) % n)
    return g


def _chorded_cycle(n, gap):
    """C_n plus a chord (i, i + gap) for every i divisible by gap: a
    necklace of short cycles whose inner vertices have degree 2."""
    g = _cycle(n)
    for i in range(0, n, gap):
        g.add_edge(i, (i + gap) % n)
    return g


def _glued_random(a, b, p, rng):
    """Random graphs on a and on b vertices sharing vertices 0, 1, 2 (each
    pair joined with probability p), rejected until the union is
    2-edge-connected.  With a, b >= 10 the shared triple is a 3-vertex cut
    with both sides of at least 7 vertices."""
    from twoec.graph import MultiGraph, is_two_edge_connected
    n = a + b - 3
    side_a = list(range(a))
    side_b = [0, 1, 2] + list(range(a, n))
    while True:
        g = MultiGraph(n)
        for side in (side_a, side_b):
            for i, u in enumerate(side):
                for v in side[i + 1:]:
                    if u < 3 and v < 3 and side is side_b:
                        continue              # shared pairs are drawn once
                    if rng.random() < p:
                        g.add_edge(u, v)
        if is_two_edge_connected(g):
            return g


def dense_random(seed):
    """dense-random: `random-2ec` at the default p with n in 26..30.

    Why: on dense graphs about 90 % of each solve is `canonicalize` and most
    of the rest the 3-vertex-cut scan (`graph.cut3`); typed enumeration,
    patch search and 2-cut code do nothing.  It is the workload for faster
    canonicalization and the no-change workload for cut search by low-link
    and for the search-kernel work.  n stays above 24, where the inside
    oracle would take over, and below 31, so that a run averages over 35
    graphs: one graph's solve time varies by about 30 % with the seed.
    """
    from twoec.generate import random_2ec
    rng = random.Random(f"dense-random:{seed}")
    out = []
    for n in DENSE_SIZES:
        g = random_2ec(n, seed=rng.randrange(2 ** 32))
        out.append((f"random-2ec n={n}", _relabel(g, rng)))
    return out


def sparse_chains(seed):
    """sparse-chains: plain cycles, cycles with short chords and cycles with
    every edge repeated.

    Why: these graphs have long degree-2 chains and many 2-vertex cuts, so
    the reduction recurses many levels.  Plain cycles spend almost all their
    time enumerating 2-cuts (`graph.cut2`) once per level.  Chorded cycles
    on at most 24 vertices add the contractibility scan and the inside
    oracle (`reduction.contractible`, `oracle.inside`, `oracle.verify`).
    Repeated edges are dropped one per level
    (`reduction.steps.drop-redundant-edge`).  The leaves have little
    structure, so `canonicalize` does little work.  It is the workload for
    cut search by low-link.  Sparse random graphs load the same scan and
    oracle but take 0.01-6 s each depending on the seed, so a run's total
    varied several-fold between seeds; chorded cycles vary by about 30 %.
    """
    rng = random.Random(f"sparse-chains:{seed}")
    out = []
    for n in CYCLE_SIZES:
        out.append((f"cycle n={n}", _relabel(_cycle(n), rng)))
    for n, gap in CHORDED_SIZES:
        out.append((f"chorded cycle n={n} gap={gap}",
                    _relabel(_chorded_cycle(n, gap), rng)))
    for n, copies in PARALLEL_SIZES:
        out.append((f"cycle n={n} x{copies}",
                    _relabel(_cycle(n, copies), rng)))
    return out


def three_cut(seed):
    """three-cut: two cliques, or two dense random sides, sharing 3 vertices.

    Why: the shared triple is a 3-vertex cut with two large sides, so the
    reduction runs typed enumeration (`reduction.typed`, 80-97 % of the time)
    and the exact base case (`oracle.exact`, 3-25 %) on the small side.  It
    is the workload for the shared search kernel; the sizes are kept small
    because one extra typed call can cost seconds.
    """
    from twoec.generate import glued_cliques
    rng = random.Random(f"three-cut:{seed}")
    out = []
    for a, b in CLIQUE_SIZES:
        out.append((f"glued-cliques {a}-{b}-3",
                    _relabel(glued_cliques(a, b, 3), rng)))
    for a, b, p in RANDOM_SIDE_SIZES:
        out.append((f"glued-random {a}-{b}-3 p={p}",
                    _relabel(_glued_random(a, b, p, rng), rng)))
    return out


def heavy_parallel(seed):
    """heavy-parallel: C_20 with every edge repeated 20 times.

    Why: the reduction drops one repeated edge per recursion level, so this
    instance exceeds the depth guard and fails.  It is kept out of the timed
    workloads, which must not fail, and run on its own to show the failure
    count until the drops are batched.
    """
    rng = random.Random(f"heavy-parallel:{seed}")
    return [("cycle n=20 x20", _relabel(_cycle(20, 20), rng))]


# Sizes are chosen so one round takes about 20 s on a 2-core cloud VM and
# so the per-seed totals average over many graphs: single solve times vary
# by 30-90 % from one seed to the next.
DENSE_SIZES = (26, 27, 28, 29, 30) * 7
CYCLE_SIZES = (50, 55, 60, 65, 70) * 8
CHORDED_SIZES = ((20, 2), (21, 3), (24, 3), (24, 4)) * 15
PARALLEL_SIZES = ((10, 3), (20, 5), (20, 10), (30, 8))
CLIQUE_SIZES = ((10, 10), (10, 11), (11, 11))
RANDOM_SIDE_SIZES = ((10, 10, 0.85), (10, 11, 0.85))

WORKLOADS = {
    "dense-random": dense_random,
    "sparse-chains": sparse_chains,
    "three-cut": three_cut,
    "heavy-parallel": heavy_parallel,
}
