"""Gluing phase: merge the components of a bridgeless canonical cover into a
single spanning 2EC component at non-increasing cost (one initial step may pay
up to +3 to create a huge component that absorbs the rest).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .cover import TwoEdgeCover, check_canonical, is_tf_two_edge_cover
from .credits import cost
from .errors import CaseLadderExhausted, PatchNotFound, StructuredViolation
from .graph import (MultiGraph, certify_contractible, contract_many,
                    find_cycle_through_edges, find_min_patch,
                    induced_subgraph, max_matching_across)


@dataclass
class ComponentGraph:
    contracted: MultiGraph          # self-loops removed
    node_vertices: list             # node -> sorted host vertex list
    node_class: list                # node -> component classification string

    @property
    def n(self):
        return self.contracted.n


@dataclass
class Segment:
    nodes: frozenset
    trivial: bool


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
    cm = contract_many(g, d.components)
    contracted = MultiGraph(cm.result.n)
    for eid, u, v in cm.result.edges:
        if u != v:
            contracted.add_edge(u, v, eid)
    # components are ordered by smallest vertex, matching contract_many's
    # representative numbering, so node i corresponds to component i
    return ComponentGraph(
        contracted=contracted,
        node_vertices=[list(c) for c in d.components],
        node_class=[h.classify_component(i) for i in range(len(d.components))],
    )


def compute_segments(cg: ComponentGraph):
    """Biconnected pieces with >= 3 nodes are non-trivial segments; every node
    outside all of them is its own trivial segment."""
    # simplified adjacency (parallel edges collapsed)
    n = cg.n
    nbrs = [set() for _ in range(n)]
    for _, u, v in cg.contracted.edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    simple = MultiGraph(n)
    for u in range(n):
        for v in sorted(nbrs[u]):
            if v > u:
                simple.add_edge(u, v)
    pieces = _biconnected_vertex_sets(simple)
    segments = []
    covered = set()
    for piece in pieces:
        if len(piece) >= 3:
            segments.append(Segment(frozenset(piece), trivial=False))
            covered |= piece
    for v in range(n):
        if v not in covered:
            segments.append(Segment(frozenset([v]), trivial=True))
    return segments


def _biconnected_vertex_sets(g: MultiGraph):
    adj = g.adjacency()
    n = g.n
    disc = [-1] * n
    low = [0] * n
    timer = [0]
    estack = []
    pieces = []
    for root in range(n):
        if disc[root] != -1:
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
                if disc[w] == -1:
                    estack.append((v, w))
                    disc[w] = low[w] = timer[0]
                    timer[0] += 1
                    stack.append((w, eid, iter(adj[w])))
                    advanced = True
                    break
                if disc[w] < disc[v]:
                    estack.append((v, w))
                    low[v] = min(low[v], disc[w])
            if not advanced:
                stack.pop()
                if stack:
                    u = stack[-1][0]
                    low[u] = min(low[u], low[v])
                    if low[v] >= disc[u]:
                        piece = set()
                        while estack:
                            a, b = estack[-1]
                            if disc[a] >= disc[v]:
                                estack.pop()
                                piece.add(a)
                                piece.add(b)
                            else:
                                break
                        if estack and estack[-1] == (u, v):
                            estack.pop()
                        piece.add(u)
                        piece.add(v)
                        pieces.append(piece)
    return pieces


# ---------------------------------------------------------------------------
# step helpers

def _huge_node(cg: ComponentGraph):
    for i, vs in enumerate(cg.node_vertices):
        if len(vs) >= 10:
            return i
    return None


def _shortest_cycle_through(cg: ComponentGraph, node, min_len=2, forbid_nodes=()):
    """Shortest cycle (host edge-id list) through `node` in the component
    graph; length-2 cycles use a parallel pair when min_len == 2."""
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
        if len(cyc) < min_len:
            continue
        if best is None or (len(cyc), sorted(cyc)) < (len(best), sorted(best)):
            best = cyc
    return best


def _apply(g, h, added, removed, kind, allow_positive=False):
    """Validate and package one glue step."""
    before = len(h.decomposition.components)
    cost_before = cost(h)
    new_members = (h.members - set(removed)) | set(added)
    if not is_tf_two_edge_cover(g, new_members):
        return None
    cand = h.replace(new_members)
    d = cand.decomposition
    if d.bridges:
        return None
    if check_canonical(cand):
        return None
    after = len(d.components)
    if after >= before:
        return None
    delta = cost(cand) - cost_before
    if not allow_positive and delta > 0:
        return None
    if allow_positive and delta > 3:
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
    got = _apply(g, h, added, (), "MakeHuge", allow_positive=True)
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
        if cls == "Large2EC" or cls == "Complex":
            # any two matching edges merge the components
            if len(m) >= 2:
                got = _apply(g, h, m[:2], (), "TrivialSegmentGlue")
                if got:
                    return got
        elif cls in ("C4", "C5", "C6", "C7"):
            if len(m) < 3:
                last_violation = StructuredViolation(
                    f"no 3-matching between components {a} and {l}",
                    vertices=set(cg.node_vertices[a]) | set(cg.node_vertices[l]),
                    edges=h.component_edges(a))
                continue
            comp_a = set(cg.node_vertices[a])
            if cls in ("C4", "C5"):
                # two of the >=3 matched endpoints in C_A are cycle-adjacent
                got = _swap_adjacent_pair(g, h, comp_a, m)
                if got:
                    return got
            else:
                got = _c67_glue(g, h, cg, a, l, m)
                if got:
                    return got
                # Case 3: the component is contractible; report upstream
                ce = h.component_edges(a)
                just = certify_contractible(g, ce, Fraction(5, 4))
                last_violation = StructuredViolation(
                    f"C6/C7 component {a} admits no glue move", vertices=comp_a,
                    edges=ce, justification=just)
                continue
        last_violation = last_violation or StructuredViolation(
            f"no valid trivial glue against neighbor {a}",
            vertices=set(cg.node_vertices[a]) | set(cg.node_vertices[l]),
            edges=h.component_edges(a))
    if last_violation is not None:
        raise last_violation
    raise CaseLadderExhausted(f"huge node {l} has no neighbors")


def _swap_adjacent_pair(g: MultiGraph, h: TwoEdgeCover, comp_a, matching):
    """C4/C5 case: remove the cycle edge between two adjacent matched
    endpoints, add their two matching edges."""
    emap = g.edge_map()
    ends = {}
    for eid in matching:
        u, v = emap[eid]
        inside = u if u in comp_a else v
        ends[inside] = eid
    comp_edges = [e for e in h.members
                  if emap[e][0] in comp_a and emap[e][1] in comp_a]
    for e in sorted(comp_edges):
        u, v = emap[e]
        if u in ends and v in ends and ends[u] != ends[v]:
            got = _apply(g, h, (ends[u], ends[v]), (e,), "TrivialSegmentGlue")
            if got:
                return got
    return None


def _c67_glue(g: MultiGraph, h: TwoEdgeCover, cg, a, l, matching):
    """C6/C7 case: find two matching edges whose C_A endpoints admit a
    Hamiltonian path in G[V(C_A)]; replace the cycle by path + both edges.
    A 4-matching (when available) widens the candidate pairs, which is how the
    non-pendant case of the analysis is realized."""
    emap = g.edge_map()
    comp_a = set(cg.node_vertices[a])
    sub, vmap = induced_subgraph(g, comp_a)
    comp_edges = [e for e in h.members
                  if emap[e][0] in comp_a and emap[e][1] in comp_a]
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
        removed = set(comp_edges) - set(path)
        got = _apply(g, h, added, removed, "TrivialSegmentGlue")
        if got:
            return got
    return None


def cycle_through_huge_and_small(g: MultiGraph, h: TwoEdgeCover, cg: ComponentGraph,
                                 l: int, a: int):
    """Candidates for merging a C4/C5 node `a` with the huge node `l`:
    cycles of the component graph through both, obtained by requiring one pair
    of edges at each node, resolved to outcome (a) (Hamiltonian path through
    C_A) or (b) (9-edge replacement absorbing a trivial C4 neighbor)."""
    cgg = cg.contracted
    adj = cgg.adjacency()
    emap = g.edge_map()
    comp_a = set(cg.node_vertices[a])
    edges_at_a = sorted({e for _, e in adj[a]})
    edges_at_l = sorted({e for _, e in adj[l]})
    sub_a, vmap_a = induced_subgraph(g, comp_a)
    comp_a_edges = [e for e in h.members
                    if emap[e][0] in comp_a and emap[e][1] in comp_a]

    cycles = []
    seen = set()
    for fa in itertools.combinations(edges_at_a, 2):
        for fl in itertools.combinations(edges_at_l, 2):
            req = set(fa) | set(fl)
            if len(req) < 3:
                continue
            cyc = find_cycle_through_edges(cgg, req)
            if cyc is None:
                continue
            key = frozenset(cyc)
            if key in seen:
                continue
            seen.add(key)
            cycles.append(cyc)

    # outcome (a): attachment points of C_A admit a Hamiltonian path
    for cyc in cycles:
        u, v = _attachment_points(emap, cyc, comp_a)
        if u is None or u == v:
            continue
        path = hamiltonian_path_between(sub_a, vmap_a[u], vmap_a[v])
        if path is None:
            continue
        added = set(cyc) | set(path)
        removed = set(comp_a_edges) - set(path)
        yield ("a", added, removed)

    # outcome (b): absorb a trivial C4 node D via a 9-edge replacement
    trivial_c4 = [d for d in range(cg.n)
                  if d not in (a, l) and cg.node_class[d] == "C4"]
    for cyc in cycles:
        nodes_on = set()
        for e in cyc:
            u, v = cgg.edge_map()[e]
            nodes_on.add(u)
            nodes_on.add(v)
        u, v = _attachment_points(emap, cyc, comp_a)
        if u is None:
            continue
        for dnode in trivial_c4:
            if dnode in nodes_on:
                continue
            comp_d = set(cg.node_vertices[dnode])
            f = _nine_edge_patch(g, comp_a, comp_d, u, v)
            if f is None:
                continue
            comp_d_edges = [e for e in h.members
                            if emap[e][0] in comp_d and emap[e][1] in comp_d]
            added = set(cyc) | set(f)
            removed = (set(comp_a_edges) | set(comp_d_edges)) - set(f)
            yield ("b", added, removed)


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


def _nine_edge_patch(g: MultiGraph, comp_a, comp_d, u, v):
    """Smallest edge set F, at most 9 edges, over G[V(C_A) u V(C_D)] such
    that F plus a virtual u-v edge is a 2EC spanning subgraph of that
    induced graph; None if there is none."""
    sub, vmap = induced_subgraph(g, comp_a | comp_d)
    base = {sub.add_edge(vmap[u], vmap[v])} if u != v else set()
    try:
        return find_min_patch(sub, base, bound=9)[0]
    except PatchNotFound:
        return None


def glue_nontrivial_segment(g: MultiGraph, h: TwoEdgeCover, cg: ComponentGraph,
                            l: int, seg: Segment):
    small = sorted(n for n in seg.nodes
                   if n != l and cg.node_class[n] in ("C4", "C5"))
    for a in small:
        for outcome, added, removed in cycle_through_huge_and_small(g, h, cg, l, a):
            got = _apply(g, h, added, removed, "NonTrivialSegmentGlue")
            if got:
                return got
    if small:
        a = small[0]
        ce = h.component_edges(a)
        just = certify_contractible(g, ce, Fraction(5, 4))
        raise StructuredViolation(
            f"no cycle-based merge for small node {a} in its segment",
            vertices=set(cg.node_vertices[a]), edges=ce, justification=just)
    # all nodes of the segment are C6/C7 or large: one cycle of length >= 3
    k = _shortest_cycle_through(cg, l, min_len=3, forbid_nodes=set(range(cg.n)) - seg.nodes)
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
        segments = compute_segments(cg)
        seg = next((s for s in segments if l in s.nodes), None)
        if seg is not None and not seg.trivial:
            cur, step = glue_nontrivial_segment(g, cur, cg, l, seg)
        else:
            cur, step = glue_trivial_segment(g, cur, cg, l)
        steps.append(step)
    raise AssertionError("glue loop exceeded its component-count guard")
