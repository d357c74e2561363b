"""Seeded instance generators for the test corpus and the CLI.

Families:
  random-2ec        Erdős–Rényi conditioned on 2-edge-connectivity by rejection.
  glued-cliques     two cliques sharing three vertices (a large-3-cut witness).
  cycle-ring        k disjoint cycles joined into a ring by doubled link edges.
  structured-random dense 2-vertex-connected graphs rejected until they carry
                    no large 3-vertex cut.
"""

from __future__ import annotations

import random

from .errors import RejectionLimit
from .graph import (MultiGraph, connected_components, find_vertex_cut,
                    is_two_edge_connected, iterate_vertex_cuts)

REJECTION_CAP = 2000


def random_2ec(n: int, p: float | None = None, seed: int = 0) -> MultiGraph:
    """Simple Erdős–Rényi graph conditioned on being 2-edge-connected."""
    if n < 3:
        raise ValueError("need n >= 3")
    if p is None:
        # dense enough that rejection usually succeeds quickly
        p = min(0.9, max(0.25, 3.0 / n + 0.15))
    if not 0 < p <= 1:
        raise ValueError(f"need 0 < p <= 1, got p={p}")
    rng = random.Random(seed)
    for _ in range(REJECTION_CAP):
        g = MultiGraph(n)
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < p:
                    g.add_edge(u, v)
        if is_two_edge_connected(g):
            return g
    raise RejectionLimit(f"random-2ec(n={n}, p={p}) rejected {REJECTION_CAP} draws")


def glued_cliques(a: int, b: int, shared: int = 3, seed: int = 0) -> MultiGraph:
    """K_a and K_b overlapping in `shared` vertices.

    With shared=3 and a,b >= 10 the shared triple is a 3-vertex cut with both
    residual sides of size >= 7.
    """
    if shared < 2 or a <= shared or b <= shared:
        raise ValueError("need shared >= 2 and clique sizes above the overlap")
    n = a + b - shared
    side_a = list(range(a))                       # includes the shared prefix
    side_b = list(range(shared)) + list(range(a, n))
    g = MultiGraph(n)
    for side in (side_a, side_b):
        for i, u in enumerate(side):
            for v in side[i + 1:]:
                if u < shared and v < shared and side is side_b:
                    continue                      # overlap edges added once
                g.add_edge(u, v)
    # seed is accepted for interface uniformity; construction is deterministic
    return g


def cycle_ring(k: int, cyclen: int = 4, seed: int = 0) -> MultiGraph:
    """k disjoint cycles of length cyclen, consecutive cycles joined by two
    link edges so the host is 2EC while the minimum triangle-free 2-edge cover
    is exactly the k cycles."""
    if k < 2 or cyclen < 4:
        raise ValueError("need k >= 2 and cyclen >= 4")
    rng = random.Random(seed)
    n = k * cyclen
    g = MultiGraph(n)
    for c in range(k):
        base = c * cyclen
        for i in range(cyclen):
            g.add_edge(base + i, base + (i + 1) % cyclen)
    for c in range(k):
        base_a = c * cyclen
        base_b = ((c + 1) % k) * cyclen
        ia, ib = rng.randrange(cyclen), rng.randrange(cyclen)
        ja = (ia + 1 + rng.randrange(cyclen - 1)) % cyclen
        jb = (ib + 1 + rng.randrange(cyclen - 1)) % cyclen
        g.add_edge(base_a + ia, base_b + ib)
        g.add_edge(base_a + ja, base_b + jb)
    return g


def structured_random(n: int, p: float = 0.4, seed: int = 0) -> MultiGraph:
    """Simple 2-vertex-connected graph with no 1-cut, no 2-cut and no large
    3-vertex cut (certified by exhaustive cut enumeration)."""
    if n < 8:
        raise ValueError("need n >= 8")
    if not 0 < p <= 1:
        raise ValueError(f"need 0 < p <= 1, got p={p}")
    rng = random.Random(seed)
    for _ in range(REJECTION_CAP):
        g = MultiGraph(n)
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < p:
                    g.add_edge(u, v)
        if not is_two_edge_connected(g):
            continue
        if find_vertex_cut(g, 1) is not None:
            continue
        if find_vertex_cut(g, 2) is not None:
            continue
        # a 3-cut is large unless it splits G into two parts, one of at most
        # 6 vertices
        if any(len(comps) >= 3 or min(map(len, comps)) >= 7
               for comps in (connected_components(g, cut)
                             for cut in iterate_vertex_cuts(g, 3))):
            continue
        return g
    raise RejectionLimit(
        f"structured-random(n={n}, p={p}) rejected {REJECTION_CAP} draws")


FAMILIES = {
    "random-2ec": random_2ec,
    "glued-cliques": glued_cliques,
    "cycle-ring": cycle_ring,
    "structured-random": structured_random,
}


def generate(family: str, params: dict, seed: int = 0) -> MultiGraph:
    """Dispatch to a family generator with keyword params."""
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; choose from {sorted(FAMILIES)}")
    return FAMILIES[family](seed=seed, **params)
