"""Shared graph builders and naive reference implementations.

The naive functions here are intentionally dumb (full enumeration, per-edge
deletion checks) so test expectations never depend on the library code under
test.
"""

from __future__ import annotations

import itertools

import networkx as nx

from twoec.graph import MultiGraph


def cycle_graph(n: int) -> MultiGraph:
    g = MultiGraph(n)
    for i in range(n):
        g.add_edge(i, (i + 1) % n)
    return g


def complete_graph(n: int) -> MultiGraph:
    g = MultiGraph(n)
    for u in range(n):
        for v in range(u + 1, n):
            g.add_edge(u, v)
    return g


def petersen() -> MultiGraph:
    g = MultiGraph(10)
    for i in range(5):
        g.add_edge(i, (i + 1) % 5)          # outer C5
    for i in range(5):
        g.add_edge(5 + i, 5 + (i + 2) % 5)  # inner pentagram
    for i in range(5):
        g.add_edge(i, 5 + i)                # spokes
    return g


def disjoint_cycles(lengths) -> MultiGraph:
    n = sum(lengths)
    g = MultiGraph(n)
    base = 0
    for length in lengths:
        for i in range(length):
            g.add_edge(base + i, base + (i + 1) % length)
        base += length
    return g


def from_networkx(gx):
    gx = nx.convert_node_labels_to_integers(gx)
    g = MultiGraph(gx.number_of_nodes())
    for u, v in sorted(gx.edges()):
        g.add_edge(u, v)
    return g


def generalized_petersen(n, k):
    """GP(n, k): outer cycle 0..n-1, spokes i - n+i, inner star polygon."""
    gp = nx.Graph()
    for i in range(n):
        gp.add_edge(i, (i + 1) % n)
        gp.add_edge(i, n + i)
        gp.add_edge(n + i, n + (i + k) % n)
    return from_networkx(gp)


# ---------------------------------------------------------------------------
# naive reference implementations

def naive_is_2ecss(g: MultiGraph, members) -> bool:
    """Spanning + connected + every member's deletion keeps it connected."""
    emap = g.edge_map()

    def connected(skip):
        adj = {v: [] for v in range(g.n)}
        for e in members:
            if e == skip:
                continue
            u, v = emap[e]
            if u != v:
                adj[u].append(v)
                adj[v].append(u)
        if g.n == 0:
            return True
        seen = {0}
        stack = [0]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        return len(seen) == g.n

    if not connected(None):
        return False
    return all(connected(e) for e in members)


def naive_min_2ecss(g: MultiGraph):
    """Minimum 2-ECSS size by exhaustive enumeration over edge subsets."""
    ids = sorted(g.edge_ids())
    for size in range(g.n, len(ids) + 1):
        for combo in itertools.combinations(ids, size):
            if naive_is_2ecss(g, set(combo)):
                return size
    return None


def naive_min_tf_cover(g: MultiGraph):
    """Minimum triangle-free 2-edge cover size by exhaustive enumeration."""
    emap = g.edge_map()
    ids = sorted(e for e, u, v in g.edges if u != v)

    def feasible(members):
        deg = [0] * g.n
        adj = {v: set() for v in range(g.n)}
        for e in members:
            u, v = emap[e]
            deg[u] += 1
            deg[v] += 1
            adj[u].add(v)
            adj[v].add(u)
        if any(d < 2 for d in deg):
            return False
        seen = set()
        for s in range(g.n):
            if s in seen:
                continue
            comp = {s}
            stack = [s]
            seen.add(s)
            while stack:
                x = stack.pop()
                for y in adj[x]:
                    if y not in seen:
                        seen.add(y)
                        comp.add(y)
                        stack.append(y)
            if len(comp) == 3:
                inside = [e for e in members
                          if emap[e][0] in comp and emap[e][1] in comp]
                if len(inside) == 3:
                    return False
        return True

    for size in range(g.n, len(ids) + 1):
        for combo in itertools.combinations(ids, size):
            if feasible(set(combo)):
                return size
    return None


def naive_bridges(g: MultiGraph):
    """Bridges by per-edge deletion and reachability, restricted to each
    edge's own component."""
    emap = g.edge_map()

    def reachable(src, skip):
        adj = {v: [] for v in range(g.n)}
        for e, u, v in g.edges:
            if e == skip or u == v:
                continue
            adj[u].append(v)
            adj[v].append(u)
        seen = {src}
        stack = [src]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        return seen

    out = set()
    for e, u, v in g.edges:
        if u == v:
            continue
        if v not in reachable(u, e):
            out.add(e)
    return out
