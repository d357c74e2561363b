"""Gluing phase: merge the components of a bridgeless canonical cover into a
single spanning 2EC component at non-increasing cost (one initial step may pay
up to +3 to create a huge component that absorbs the rest).

Each component is one node of the component graph.  A huge node (>= 10
vertices) absorbs one neighbour per step.  Its segment is its 2EC class in
the component graph with parallel edges collapsed: when that is the node
alone, a trivial-segment step merges it with a neighbour across a matching;
otherwise a non-trivial-segment step adds a cycle of >= 3 nodes through it,
replacing a C4/C5 node's cycle by a Hamiltonian path where one is on it.
When no move merges a small node, the step raises `StructuredViolation`
with that node's component as the witness, and the reduction labels it with
`certify_contractible` at the configured alpha and contracts it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .cover import TwoEdgeCover, swap
from .credits import cost
from .errors import CaseLadderExhausted, StructuredViolation
from .graph import (MultiGraph, contract_many, find_cycle_through_edges,
                    induced_subgraph, low_link, max_matching_across,
                    member_adjacency, two_ec_classes)


@dataclass
class ComponentGraph:
    contracted: MultiGraph
    node_vertices: list             # node -> sorted host vertex list
    node_class: list                # node -> component classification string

    @property
    def n(self):
        return self.contracted.n


@dataclass
class GlueStep:
    kind: str                       # MakeHuge | TrivialSegmentGlue | NonTrivialSegmentGlue
    added: frozenset
    removed: frozenset
    cost_delta: Fraction
    components_before: int
    components_after: int


def build_component_graph(g: MultiGraph, h: TwoEdgeCover) -> ComponentGraph:
    d = h.decomposition
    # components are ordered by smallest vertex, matching contract_many's
    # representative numbering, so node i corresponds to component i
    return ComponentGraph(
        contracted=contract_many(g, d.components),
        node_vertices=[list(c) for c in d.components],
        node_class=[h.classify_component(i) for i in range(len(d.components))],
    )


def segment_of(cg: ComponentGraph, l: int) -> frozenset:
    """The nodes of l's 2EC class in the component graph with parallel edges
    collapsed.  In a simple graph a class of >= 2 nodes holds a cycle of
    >= 3 nodes through l, so the segment is non-trivial exactly when it has
    more than one node."""
    simple = {}
    for eid, u, v in cg.contracted.edges:
        simple.setdefault((min(u, v), max(u, v)), eid)
    adj = member_adjacency(cg.contracted, simple.values())
    bridges = low_link(cg.n, adj)[2]
    class_of = two_ec_classes(cg.n, adj, bridges)[1]
    return frozenset(v for v in range(cg.n) if class_of[v] == class_of[l])


# ---------------------------------------------------------------------------
# step helpers

def _huge_node(cg: ComponentGraph):
    for i, vs in enumerate(cg.node_vertices):
        if len(vs) >= 10:
            return i
    return None


def _shortest_cycle_through(cg: ComponentGraph, node, min_len=2, forbid_nodes=()):
    """Shortest cycle (host edge-id list) through `node` in the component
    graph; length-2 cycles use a parallel pair when min_len == 2.

    With min_len >= 3 the search from a neighbour w never takes a second
    w-node edge: a simple cycle through >= 3 nodes cannot use one, and taking
    it would end the search at a 2-cycle before any longer path is tried."""
    g = cg.contracted
    adj = g.adjacency()
    forbidden = set(forbid_nodes)
    best = None
    for w, eid in adj[node]:
        if w in forbidden:
            continue
        # shortest path w -> node avoiding edge eid and forbidden nodes
        prev = {w: (None, None)}
        queue = [w]
        while queue:
            nxt = []
            for x in queue:
                for y, e2 in adj[x]:
                    if e2 == eid or y in forbidden or y in prev:
                        continue
                    if min_len >= 3 and x == w and y == node:
                        continue
                    prev[y] = (x, e2)
                    nxt.append(y)
            if node in prev:
                break
            queue = nxt
        if node not in prev:
            continue
        path = []
        x = node
        while prev[x][0] is not None:
            path.append(prev[x][1])
            x = prev[x][0]
        cyc = [eid] + path[::-1]
        if best is None or (len(cyc), sorted(cyc)) < (len(best), sorted(best)):
            best = cyc
    return best


def _apply(g, h, added, removed, kind, max_delta=0):
    """Package one glue step when the move keeps the cover canonical and
    bridgeless, lowers the component count and raises the cost by at most
    `max_delta`."""
    before = len(h.decomposition.components)
    cand = swap(g, h, added, removed)
    if cand is None or cand.decomposition.bridges:
        return None
    after = len(cand.decomposition.components)
    if after >= before:
        return None
    delta = cost(cand) - cost(h)
    if delta > max_delta:
        return None
    step = GlueStep(kind=kind, added=frozenset(added), removed=frozenset(removed),
                   cost_delta=delta, components_before=before,
                   components_after=after)
    return cand, step


def make_huge(g: MultiGraph, h: TwoEdgeCover):
    """Create a component with >= 10 vertices by adding one or two cycles of
    the component graph; the single glue step allowed to cost up to +3."""
    cg = build_component_graph(g, h)
    if _huge_node(cg) is not None or cg.n == 1:
        return h, None
    # start at the node with the most vertices
    a = max(range(cg.n), key=lambda i: (len(cg.node_vertices[i]), -i))
    k1 = _shortest_cycle_through(cg, a, min_len=2)
    if k1 is None:
        raise CaseLadderExhausted("component graph of a 2EC host has no cycle")
    added = set(k1)
    cand = h.replace(h.members | added)
    cg2 = build_component_graph(g, cand)
    if _huge_node(cg2) is None and cg2.n > 1:
        # the merged node contains the previous start component
        rep = min(cg.node_vertices[a])
        b = next(i for i, vs in enumerate(cg2.node_vertices) if rep in vs)
        k2 = _shortest_cycle_through(cg2, b, min_len=2)
        if k2 is None:
            raise CaseLadderExhausted("no second cycle through the merged node")
        added |= set(k2)
    got = _apply(g, h, added, (), "MakeHuge", max_delta=3)
    if got is None:
        raise CaseLadderExhausted("make_huge produced an invalid cover")
    cand, step = got
    cg3 = build_component_graph(g, cand)
    assert _huge_node(cg3) is not None or cg3.n == 1, "make_huge failed to make huge"
    return cand, step


def hamiltonian_path_between(g_induced: MultiGraph, u: int, v: int):
    """Exhaustive Hamiltonian u-v path search; returns an edge-id list."""
    n = g_induced.n
    adj = g_induced.adjacency()
    if u == v:
        return None

    def dfs(cur, visited, eids):
        if len(visited) == n and cur == v:
            return list(eids)
        for w, eid in adj[cur]:
            if w in visited:
                continue
            if w == v and len(visited) + 1 < n:
                continue
            visited.add(w)
            eids.append(eid)
            got = dfs(w, visited, eids)
            if got is not None:
                return got
            eids.pop()
            visited.discard(w)
        return None

    return dfs(u, {u}, [])


def glue_trivial_segment(g: MultiGraph, h: TwoEdgeCover, cg: ComponentGraph, l: int):
    """Merge the huge component C_L (a trivial segment) with a neighbor."""
    adj = cg.contracted.adjacency()
    neighbors = sorted({w for w, _ in adj[l]})
    last_violation = None
    for a in neighbors:
        cls = cg.node_class[a]
        m = max_matching_across(g, cg.node_vertices[a], cg.node_vertices[l])
        if cls == "Large2EC":
            # any two matching edges merge the components
            if len(m) >= 2:
                got = _apply(g, h, m[:2], (), "TrivialSegmentGlue")
                if got:
                    return got
        elif cls in ("C4", "C5", "C6", "C7"):
            if len(m) < 3:
                last_violation = StructuredViolation(
                    f"no 3-matching between components {a} and {l}",
                    edges=h.component_edges(a))
                continue
            if cls in ("C4", "C5"):
                # two of the >=3 matched endpoints in C_A are cycle-adjacent
                got = _swap_adjacent_pair(g, h, cg, a, m)
                if got:
                    return got
            else:
                got = _c67_glue(g, h, cg, a, m)
                if got:
                    return got
                # Case 3: the component is contractible; report upstream
                last_violation = StructuredViolation(
                    f"C6/C7 component {a} admits no glue move",
                    edges=h.component_edges(a))
                continue
        last_violation = last_violation or StructuredViolation(
            f"no valid trivial glue against neighbor {a}",
            edges=h.component_edges(a))
    if last_violation is not None:
        raise last_violation
    raise CaseLadderExhausted(f"huge node {l} has no neighbors")


def _swap_adjacent_pair(g: MultiGraph, h: TwoEdgeCover, cg, a, matching):
    """C4/C5 case: remove the cycle edge between two adjacent matched
    endpoints, add their two matching edges."""
    emap = g.edge_map()
    comp_a = set(cg.node_vertices[a])
    ends = {}
    for eid in matching:
        u, v = emap[eid]
        inside = u if u in comp_a else v
        ends[inside] = eid
    for e in h.component_edges(a):
        u, v = emap[e]
        if u in ends and v in ends and ends[u] != ends[v]:
            got = _apply(g, h, (ends[u], ends[v]), (e,), "TrivialSegmentGlue")
            if got:
                return got
    return None


def _c67_glue(g: MultiGraph, h: TwoEdgeCover, cg, a, matching):
    """C6/C7 case: find two matching edges whose C_A endpoints admit a
    Hamiltonian path in G[V(C_A)]; replace the cycle by path + both edges.
    A 4-matching (when available) widens the candidate pairs, which is how the
    non-pendant case of the analysis is realized."""
    emap = g.edge_map()
    comp_a = set(cg.node_vertices[a])
    sub, vmap = induced_subgraph(g, comp_a)
    comp_edges = set(h.component_edges(a))
    ends = {}
    for eid in matching:
        u, v = emap[eid]
        inside = u if u in comp_a else v
        ends.setdefault(inside, eid)
    inside_vs = sorted(ends)
    for u, v in itertools.combinations(inside_vs, 2):
        path = hamiltonian_path_between(sub, vmap[u], vmap[v])
        if path is None:
            continue
        added = set(path) | {ends[u], ends[v]}
        removed = comp_edges - set(path)
        got = _apply(g, h, added, removed, "TrivialSegmentGlue")
        if got:
            return got
    return None


def cycle_through_huge_and_small(g: MultiGraph, h: TwoEdgeCover, cg: ComponentGraph,
                                 l: int, a: int):
    """Candidate (added, removed) moves merging a C4/C5 node `a` with the huge
    node `l`.  Each is a cycle of the component graph through both (found by
    requiring one pair of edges at each node) whose two attachment points in
    C_A are joined by a Hamiltonian path of G[V(C_A)]; the move adds the
    cycle and the path and drops C_A's other edges."""
    cgg = cg.contracted
    adj = cgg.adjacency()
    emap = g.edge_map()
    comp_a = set(cg.node_vertices[a])
    edges_at_a = sorted({e for _, e in adj[a]})
    edges_at_l = sorted({e for _, e in adj[l]})
    sub_a, vmap_a = induced_subgraph(g, comp_a)
    comp_a_edges = set(h.component_edges(a))
    seen = set()
    for fa in itertools.combinations(edges_at_a, 2):
        for fl in itertools.combinations(edges_at_l, 2):
            req = set(fa) | set(fl)
            if len(req) < 3:
                continue
            cyc = find_cycle_through_edges(cgg, req)
            if cyc is None or frozenset(cyc) in seen:
                continue
            seen.add(frozenset(cyc))
            u, v = _attachment_points(emap, cyc, comp_a)
            if u is None or u == v:
                continue
            path = hamiltonian_path_between(sub_a, vmap_a[u], vmap_a[v])
            if path is None:
                continue
            yield set(cyc) | set(path), comp_a_edges - set(path)


def _attachment_points(emap, cyc, comp_a):
    pts = []
    for e in cyc:
        u, v = emap[e]
        if u in comp_a:
            pts.append(u)
        if v in comp_a:
            pts.append(v)
    if len(pts) != 2:
        return None, None
    return pts[0], pts[1]


def glue_nontrivial_segment(g: MultiGraph, h: TwoEdgeCover, cg: ComponentGraph,
                            l: int, seg: frozenset):
    small = sorted(n for n in seg
                   if n != l and cg.node_class[n] in ("C4", "C5"))
    for a in small:
        for added, removed in cycle_through_huge_and_small(g, h, cg, l, a):
            got = _apply(g, h, added, removed, "NonTrivialSegmentGlue")
            if got:
                return got
    if small:
        a = small[0]
        raise StructuredViolation(
            f"no cycle-based merge for small node {a} in its segment",
            edges=h.component_edges(a))
    # all nodes of the segment are C6/C7 or large: one cycle of length >= 3
    k = _shortest_cycle_through(cg, l, min_len=3, forbid_nodes=set(range(cg.n)) - seg)
    if k is not None:
        got = _apply(g, h, set(k), (), "NonTrivialSegmentGlue")
        if got:
            return got
    raise CaseLadderExhausted(
        f"no admissible cycle through huge node {l} in its non-trivial segment")


def glue_all(g: MultiGraph, h: TwoEdgeCover):
    """Drive gluing to a single spanning 2EC component; returns the final
    member set and the ordered step list."""
    steps = []
    cur = h
    made_huge = False
    guard = len(h.decomposition.components) + 3
    for _ in range(guard):
        cg = build_component_graph(g, cur)
        if cg.n == 1:
            return cur, steps
        if _huge_node(cg) is None:
            assert not made_huge, "huge component vanished mid-glue"
            cur, step = make_huge(g, cur)
            made_huge = True
            if step is not None:
                steps.append(step)
            continue
        l = _huge_node(cg)
        seg = segment_of(cg, l)
        if len(seg) > 1:
            cur, step = glue_nontrivial_segment(g, cur, cg, l, seg)
        else:
            cur, step = glue_trivial_segment(g, cur, cg, l)
        steps.append(step)
    raise AssertionError("glue loop exceeded its component-count guard")
