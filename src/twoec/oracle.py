"""Exact desk-scale solvers: minimum 2-ECSS, minimum triangle-free 2-edge cover,
feasibility verification.  These are the reference oracles the approximation
pipeline is tested against, so they share as little code with it as possible.
"""

from __future__ import annotations

import itertools

from .errors import Infeasible, NotTwoEdgeConnected
from .graph import EdgeSubset, ExactResult, MultiGraph, is_two_edge_connected

DEFAULT_BUDGET = 5 * 10 ** 6


# ---------------------------------------------------------------------------
# verification (independent code path from graph.is_two_edge_connected)

def verify_2ecss(g: MultiGraph, h) -> bool:
    """True iff h is a spanning, connected, bridgeless subgraph of g."""
    if isinstance(h, EdgeSubset):
        members = h.members
    else:
        members = set(h)
    emap = g.edge_map()
    if any(eid not in emap for eid in members):
        return False
    adj = {v: [] for v in range(g.n)}
    for eid in members:
        u, v = emap[eid]
        if u != v:
            adj[u].append((v, eid))
            adj[v].append((u, eid))

    if g.n:
        seen = {0}
        stack = [0]
        while stack:
            for y, _ in adj[stack.pop()]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        if len(seen) < g.n:
            return False
    # connected, so bridgeless iff no single member's deletion disconnects it
    return not _bridges_of(g.n, adj)


# ---------------------------------------------------------------------------
# shared branch-and-bound scaffolding

def _useful_edges(g: MultiGraph):
    """Non-self-loop edges; at most two parallels per vertex pair are kept."""
    count = {}
    out = []
    for eid, u, v in sorted(g.edges):
        if u == v:
            continue
        key = (min(u, v), max(u, v))
        count[key] = count.get(key, 0) + 1
        if count[key] <= 2:
            out.append((eid, u, v))
    return out


def _subgraph_state(n, emap, included):
    adj = {v: [] for v in range(n)}
    for eid in included:
        u, v = emap[eid]
        adj[u].append((v, eid))
        adj[v].append((u, eid))
    return adj


def _components_of(n, adj):
    comps = []
    seen = set()
    for s in range(n):
        if s in seen:
            continue
        comp = {s}
        stack = [s]
        seen.add(s)
        while stack:
            x = stack.pop()
            for y, _ in adj[x]:
                if y not in seen:
                    seen.add(y)
                    comp.add(y)
                    stack.append(y)
        comps.append(comp)
    return comps


def _bridges_of(n, adj):
    disc = {}
    low = {}
    bridges = []
    timer = [0]
    for root in range(n):
        if root in disc:
            continue
        stack = [(root, -1, iter(adj[root]))]
        disc[root] = low[root] = timer[0]
        timer[0] += 1
        while stack:
            v, pe, it = stack[-1]
            advanced = False
            for w, eid in it:
                if eid == pe:
                    continue
                if w not in disc:
                    disc[w] = low[w] = timer[0]
                    timer[0] += 1
                    stack.append((w, eid, iter(adj[w])))
                    advanced = True
                    break
                low[v] = min(low[v], disc[w])
            if not advanced:
                stack.pop()
                if stack:
                    u = stack[-1][0]
                    low[u] = min(low[u], low[v])
                    if low[v] > disc[u]:
                        bridges.append((eid_of := pe, v))
    return bridges


class _Search:
    """DPLL-style include/exclude search over a fixed candidate edge list."""

    def __init__(self, g: MultiGraph, budget: int):
        self.g = g
        self.n = g.n
        self.emap = g.edge_map()
        self.cands = _useful_edges(g)
        self.cand_ids = [e[0] for e in self.cands]
        self.by_vertex = {v: [] for v in range(g.n)}
        for eid, u, v in self.cands:
            self.by_vertex[u].append(eid)
            self.by_vertex[v].append(eid)
        self.budget = budget
        self.nodes = 0
        self.best = None          # (value, frozenset)
        self.exhausted = False    # budget ran out

    def run(self, included, excluded):
        self.nodes += 1
        if self.nodes > self.budget:
            self.exhausted = True
            return
        if self.best is not None and len(included) + self.lower_extra(included) >= self.best[0]:
            return
        cands = self.branch_candidates(included, excluded)
        if cands is None:                     # feasible leaf
            val = len(included)
            if self.best is None or val < self.best[0]:
                self.best = (val, frozenset(included))
            return
        cands = [e for e in cands if e not in included and e not in excluded]
        if not cands:
            return
        newly_excluded = []
        for eid in cands:
            included.add(eid)
            self.run(included, excluded)
            included.discard(eid)
            excluded.add(eid)
            newly_excluded.append(eid)
            if self.exhausted:
                break
        for eid in newly_excluded:
            excluded.discard(eid)

    # subclass hooks -------------------------------------------------------
    def lower_extra(self, included):
        raise NotImplementedError

    def branch_candidates(self, included, excluded):
        """Return a candidate list the solution must intersect, or None if
        `included` is already feasible."""
        raise NotImplementedError


class _Min2ECSS(_Search):
    def lower_extra(self, included):
        deg = {v: 0 for v in range(self.n)}
        for eid in included:
            u, v = self.emap[eid]
            deg[u] += 1
            deg[v] += 1
        deficit = sum(max(0, 2 - d) for d in deg.values())
        lb = (deficit + 1) // 2
        return max(lb, self.n - len(included))

    def branch_candidates(self, included, excluded):
        adj = _subgraph_state(self.n, self.emap, included)
        # 1) degree-deficient vertex: smallest id first
        for v in range(self.n):
            avail = [e for e in self.by_vertex[v] if e not in excluded]
            deg = len(adj[v])
            if deg < 2:
                if len(avail) < 2:
                    return []          # dead branch
                return [e for e in avail if e not in included]
        # 2) disconnected
        comps = _components_of(self.n, adj)
        if len(comps) > 1:
            comp = min(comps, key=min)
            out = [eid for eid, u, v in self.cands
                   if eid not in excluded and eid not in included
                   and (u in comp) != (v in comp)]
            return out
        # 3) bridges: branch on edges crossing a leaf 2EC class
        br = _bridges_of(self.n, adj)
        if br:
            bridge_ids = {b[0] for b in br}
            # 2EC classes = components after dropping bridges
            adj2 = {v: [(w, e) for w, e in adj[v] if e not in bridge_ids]
                    for v in range(self.n)}
            classes = _components_of(self.n, adj2)
            # pick the class with fewest outside options to branch tightly
            best_out = None
            for cls in sorted(classes, key=min):
                crossing_inc = sum(1 for b in bridge_ids
                                   if (self.emap[b][0] in cls) != (self.emap[b][1] in cls))
                if crossing_inc != 1:
                    continue           # only leaf classes of the bridge tree
                out = [eid for eid, u, v in self.cands
                       if eid not in excluded and eid not in included
                       and (u in cls) != (v in cls) and eid not in bridge_ids]
                if best_out is None or len(out) < len(best_out):
                    best_out = out
                    if not out:
                        break
            return best_out if best_out is not None else []
        return None


def exact_min_2ecss(g: MultiGraph, budget: int = DEFAULT_BUDGET):
    """Minimum 2-ECSS by branch and bound; certified iff finished in budget."""
    if g.n <= 1:
        return ExactResult(0, EdgeSubset(g, frozenset()), 0, True)
    if not is_two_edge_connected(g):
        raise Infeasible("input graph is not 2-edge-connected")
    s = _Min2ECSS(g, budget)
    s.run(set(), set())
    if s.best is None:
        if s.exhausted:
            return None
        raise NotTwoEdgeConnected("no 2-ECSS found")  # unreachable after check
    value, members = s.best
    return ExactResult(value, EdgeSubset(g, members), s.nodes, not s.exhausted)


# ---------------------------------------------------------------------------
# minimum triangle-free 2-edge cover

def _triangle_components(n, adj):
    """Components that are exactly a triangle (3 vertices, 3 edges)."""
    out = []
    for comp in _components_of(n, adj):
        if len(comp) == 3:
            eids = {e for v in comp for _, e in adj[v]}
            if len(eids) == 3 and all(len(adj[v]) == 2 for v in comp):
                out.append(sorted(comp))
    return out


class _MinTFCover(_Search):
    # deliberately different branching order from cover.min_triangle_free_cover:
    # largest deficient vertex first, candidate edges in descending id order.

    def lower_extra(self, included):
        deg = {v: 0 for v in range(self.n)}
        for eid in included:
            u, v = self.emap[eid]
            deg[u] += 1
            deg[v] += 1
        deficit = sum(max(0, 2 - d) for d in deg.values())
        return (deficit + 1) // 2

    def branch_candidates(self, included, excluded):
        adj = _subgraph_state(self.n, self.emap, included)
        for v in range(self.n - 1, -1, -1):
            if len(adj[v]) < 2:
                avail = [e for e in sorted(self.by_vertex[v], reverse=True)
                         if e not in excluded]
                if len(avail) < 2:
                    return []
                return [e for e in avail if e not in included]
        tris = _triangle_components(self.n, adj)
        if tris:
            comp = set(tris[0])
            out = [eid for eid, u, v in sorted(self.cands, reverse=True)
                   if eid not in excluded and eid not in included
                   and (u in comp or v in comp) and not (u in comp and v in comp)]
            return out
        return None


def exact_min_tf_cover(g: MultiGraph, budget: int = DEFAULT_BUDGET):
    """Minimum triangle-free 2-edge cover by branch and bound."""
    if any(g.degree(v) < 2 for v in range(g.n)):
        raise Infeasible("a vertex has degree < 2")
    s = _MinTFCover(g, budget)
    s.run(set(), set())
    if s.best is None:
        if s.exhausted:
            return None
        raise Infeasible("no triangle-free 2-edge cover exists")
    value, members = s.best
    return ExactResult(value, EdgeSubset(g, members), s.nodes, not s.exhausted)


# ---------------------------------------------------------------------------
# contractibility support

def min_edges_inside(g: MultiGraph, s, max_inside: int = 24):
    """Minimum number of edges with both endpoints in s over all 2-ECSS of g.

    Adding zero-cost outside edges never hurts, so fix all outside edges and
    search subsets of the inside edges by increasing size.  Returns None if
    the inside-edge count is too large to enumerate.
    """
    s = set(s)
    inside = [eid for eid, u, v in sorted(g.edges) if u in s and v in s and u != v]
    outside = [eid for eid, u, v in g.edges if not (u in s and v in s) and u != v]
    if len(inside) > max_inside:
        return None
    for k in range(len(inside) + 1):
        for combo in itertools.combinations(inside, k):
            if verify_2ecss(g, set(outside) | set(combo)):
                return k
    return None


def exact_inside_oracle(g: MultiGraph, s):
    """The reference inside count that perfbench probes: `min_edges_inside`
    for |s| <= 8 on at most 24 vertices, else None."""
    if len(s) > 8 or g.n > 24:
        return None
    return min_edges_inside(g, s)
