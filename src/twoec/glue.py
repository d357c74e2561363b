"""Gluing phase: merge the components of a bridgeless canonical cover into a
single spanning 2EC component at non-increasing cost (one initial step may pay
up to +3 to create a huge component that absorbs the rest).

Each component is one node of the component graph `cg`, the host with the
cover's components contracted (`contract_many(g, h.decomposition.components)`).
Both number by smallest vertex, so node i is component i, and a node's
vertices and kind are read from the cover.  A huge node (>= 10 vertices),
the Pac-Man, eats one neighbour per step.  Its segment is its 2EC class in
the component graph with parallel edges collapsed: when that is the node
alone, a trivial-segment step merges it with a neighbour across a matching;
otherwise a non-trivial-segment step adds a cycle of >= 3 nodes through it,
closed by `graph.fan` at a C4/C5 node.  Both ladders eat a
cycle node by one move, `_eat`: enter it at two vertices and keep a
Hamiltonian path between them.
Each rung of a ladder lists its candidate (added, removed) moves in order and
`_first` takes the first one `_apply` accepts.  When no move merges a small
node, the step raises `StructuredViolation` with that node's component as
the witness, and the reduction labels it with `certify_contractible` at the
configured alpha and contracts it.

No other exit can fire.  The cover is canonical, bridgeless and
triangle-free on a simple 2EC host (a leaf of the reduction has no parallel
edges), so its components are cycles C4-C7 (credit i/4, at least 1) and
Large2EC components (>= 8 edges, so >= 5 vertices, credit 2), and the
component graph, a contraction of the host, is 2EC.
Adding a cycle of the component graph through k nodes merges them into one
bridgeless component with >= 8 edges, which is canonical.  So:
- `make_huge` finds both its cycles: in a 2EC graph of >= 2 nodes every
  node lies on a cycle (a parallel pair counts as one).  Its first cycle
  costs k + 2 - (credits of its k nodes) <= 2; the second runs through the
  merged node, of credit 2, and costs <= 1, so `_apply` accepts the step at
  +3.  The first cycle alone merges >= 3 nodes (>= 12 vertices) unless it
  is a parallel pair; then the second merges >= 1 more, so the result has a
  huge node or is a single component.
- In a trivial segment the huge node has a neighbour, and every neighbour
  that does not glue leaves a violation to raise.
- A non-trivial segment is a 2EC class of >= 2 nodes of the component
  graph with parallel edges collapsed, a simple graph, so it holds a cycle
  of k >= 3 nodes through the huge node.  With no C4/C5 node in it, every
  other node has credit >= 3/2, and adding the cycle costs
  <= k - 3(k - 1)/2 <= 0.  With one, the C4/C5 rung's moves are all
  accepted (see `_eat`), so it raises only when it lists none.
- Every step lowers the component count and only merges components (a move
  removes edges of the small component it absorbs, and keeps it spanned),
  so once a huge node exists it stays, `make_huge` runs at most once, and
  `glue_all` ends.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .cover import TwoEdgeCover, swap
from .credits import cost
from .errors import StructuredViolation
from .graph import (MultiGraph, contract_many, fan, induced_subgraph,
                    low_link, max_matching_across, two_ec_classes)


@dataclass
class GlueStep:
    kind: str                       # MakeHuge | TrivialSegmentGlue | NonTrivialSegmentGlue
    added: frozenset
    removed: frozenset
    cost_delta: Fraction
    components_before: int
    components_after: int


def segment_of(cg: MultiGraph, l: int) -> frozenset:
    """The nodes of l's 2EC class in the component graph `cg` with parallel
    edges collapsed.  In a simple graph a class of >= 2 nodes holds a cycle
    of >= 3 nodes through l, so the segment is non-trivial exactly when it
    has more than one node."""
    adj = cg.without_edges(cg.redundant_edges()).adjacency()
    class_of = two_ec_classes(cg.n, adj, low_link(cg.n, adj)[2])[1]
    return frozenset(v for v in range(cg.n) if class_of[v] == class_of[l])


# ---------------------------------------------------------------------------
# step helpers

def _huge_node(h: TwoEdgeCover):
    return next((i for i, vs in enumerate(h.decomposition.components)
                 if len(vs) >= 10), None)


def _shortest_cycle_through(cg: MultiGraph, node, min_len=2, forbid_nodes=()):
    """Shortest cycle (host edge-id list) through `node` in the component
    graph `cg`; length-2 cycles use a parallel pair when min_len == 2.

    With min_len >= 3 the search from a neighbour w never takes a second
    w-node edge: a simple cycle through >= 3 nodes cannot use one, and taking
    it would end the search at a 2-cycle before any longer path is tried."""
    adj = cg.adjacency()
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


def _first(g, h, moves, kind):
    """The first of the (added, removed) `moves` that `_apply` accepts, as
    (cover, step), or None."""
    for added, removed in moves:
        got = _apply(g, h, added, removed, kind)
        if got:
            return got
    return None


def make_huge(g: MultiGraph, h: TwoEdgeCover):
    """Create a component with >= 10 vertices by adding one or two cycles of
    the component graph; the single glue step allowed to cost up to +3.
    Returns (h, None) when h already has a huge or a single component.  The
    module docstring shows that both cycles exist and the step is accepted."""
    comps = h.decomposition.components
    if _huge_node(h) is not None or len(comps) == 1:
        return h, None
    # start at the node with the most vertices
    a = max(range(len(comps)), key=lambda i: (len(comps[i]), -i))
    added = set(_shortest_cycle_through(contract_many(g, comps), a, min_len=2))
    merged = h.replace(h.members | added)
    d = merged.decomposition
    if _huge_node(merged) is None and len(d.components) > 1:
        # the merged node contains the previous start component
        b = d.component_of[comps[a][0]]
        added |= set(_shortest_cycle_through(contract_many(g, d.components), b,
                                             min_len=2))
    return _apply(g, h, added, (), "MakeHuge", max_delta=3)


def hamiltonian_path_between(g_induced: MultiGraph, u: int, v: int):
    """The first Hamiltonian u-v path of g_induced as an edge-id list, over
    the orders of the other vertices in sorted order and taking the
    smallest-id edge at each step; None when there is none.  It runs on a
    cycle component C_A of at most 7 vertices, so it tries at most 5! orders.
    """
    link = {}                       # (x, y) -> smallest id of an x-y edge
    for x, nbrs in enumerate(g_induced.adjacency()):
        for y, eid in nbrs:
            link.setdefault((x, y), eid)
    middle = sorted(set(range(g_induced.n)) - {u, v})
    for order in itertools.permutations(middle):
        path = [link.get(step) for step in itertools.pairwise((u, *order, v))]
        if None not in path:
            return path
    return None


def glue_trivial_segment(g: MultiGraph, h: TwoEdgeCover, cg: MultiGraph, l: int):
    """Merge the huge component C_L (a trivial segment) with a neighbour: a
    Large2EC across two matching edges, a cycle C_A by `_eat` at the pairs
    of its ends of a maximum matching of >= 3 edges, in sorted order.

    Neighbours are tried in order.  When none glues, the violation raised is
    that of the last neighbour with no 3-matching or, for a C6/C7, no move;
    when no neighbour is such, the first neighbour's "no valid trivial glue".
    """
    emap = g.edge_map()
    comps, kinds = h.decomposition.components, h.classification()
    neighbors = sorted({w for w, _ in cg.adjacency()[l]})
    violation = None
    for a in neighbors:
        cls = kinds[a]
        m = max_matching_across(g, comps[a], comps[l])
        if cls == "Large2EC":
            # any two matching edges merge the components
            moves = [(m[:2], ())] if len(m) >= 2 else []
        elif len(m) < 3:
            violation = StructuredViolation(
                f"no 3-matching between components {a} and {l}",
                edges=h.component_edges(a))
            continue
        else:
            comp_a = set(comps[a])
            ends = {}                       # C_A end -> its matching edge
            for eid in m:
                u, v = emap[eid]
                ends[u if u in comp_a else v] = eid
            moves = _eat(g, h, a, (
                (u, v, (ends[u], ends[v]))
                for u, v in itertools.combinations(sorted(ends), 2)))
        got = _first(g, h, moves, "TrivialSegmentGlue")
        if got:
            return got
        if cls in ("C6", "C7"):
            # Case 3: the component is contractible; report upstream
            violation = StructuredViolation(
                f"C6/C7 component {a} admits no glue move",
                edges=h.component_edges(a))
    raise violation or StructuredViolation(
        f"no valid trivial glue against neighbor {neighbors[0]}",
        edges=h.component_edges(neighbors[0]))


def _eat(g: MultiGraph, h: TwoEdgeCover, a, entries):
    """The huge node l eats the cycle node a: for each (u, v, edges) of
    `entries`, `edges` closing a cycle of the component graph through l and
    a that enters C_A at u != v, the move (edges + P, E(C_A) - P) for a
    Hamiltonian u-v path P of G[V(C_A)], where one exists.

    Every move is accepted.  Let the cycle have k >= 2 nodes (k = 2: two
    matching edges; k >= 3: a `fan` cycle) and C_A be a C_i.  The cover
    gains k + |P| - i = k - 1 edges, and the merged component's credit 2
    replaces l's 2, a's i/4 >= 1 and >= 1 for each of the k - 2 other nodes,
    so the cost changes by <= 1 - i/4 <= 0.  The result is one bridgeless
    component with >= 8 edges, which is canonical.  Any 3 vertices of a C4
    or C5 include two adjacent ones, so given the pairs of a 3-matching's
    ends a C4/C5 always has a move (the cycle less that edge); only a C6/C7
    can have none."""
    sub, vmap = induced_subgraph(g, h.decomposition.components[a])
    comp_edges = set(h.component_edges(a))
    for u, v, edges in entries:
        path = hamiltonian_path_between(sub, vmap[u], vmap[v])
        if path is not None:
            yield set(edges) | set(path), comp_edges - set(path)


def cycle_through_huge_and_small(g: MultiGraph, h: TwoEdgeCover, cg: MultiGraph,
                                 l: int, a: int):
    """The `_eat` entries (u, v, cycle) that merge a C4/C5 node `a` with the
    huge node `l`.  For each pair of edges e1, e2 at a, in adjacency order,
    with far nodes x1 != x2 and distinct ends u, v in C_A, the cycle is e1,
    e2 and the `fan` paths from l to {x1, x2} - {l} in the component graph
    less a.  Such a cycle exists exactly when the paths do; it runs through
    k >= 3 nodes (a, x1 and x2), and `_eat` shows its moves are accepted."""
    adj = cg.adjacency()
    emap = g.edge_map()
    comp_a = set(h.decomposition.components[a])
    for (x1, e1), (x2, e2) in itertools.combinations(adj[a], 2):
        (u,), (v,) = (comp_a.intersection(emap[e]) for e in (e1, e2))
        if x1 == x2 or u == v:
            continue
        targets = {x1, x2} - {l}
        paths = fan(adj, l, targets, {a})
        if len(paths) == len(targets):
            yield u, v, {e1, e2} | {next(e for w, e in adj[x] if w == y)
                                    for p in paths
                                    for x, y in itertools.pairwise([l] + p)}


def glue_nontrivial_segment(g: MultiGraph, h: TwoEdgeCover, cg: MultiGraph,
                            l: int, seg: frozenset):
    """Merge a node of the huge node's non-trivial segment: a C4/C5 node
    through a cycle and a Hamiltonian path, else (the segment holding only
    C6/C7 and large nodes) every node of a shortest cycle of >= 3 nodes,
    which the module docstring shows is accepted."""
    kinds = h.classification()
    small = sorted(n for n in seg if n != l and kinds[n] in ("C4", "C5"))
    if small:
        got = _first(g, h, itertools.chain.from_iterable(
            _eat(g, h, a, cycle_through_huge_and_small(g, h, cg, l, a))
            for a in small), "NonTrivialSegmentGlue")
        if got:
            return got
        raise StructuredViolation(
            f"no cycle-based merge for small node {small[0]} in its segment",
            edges=h.component_edges(small[0]))
    k = _shortest_cycle_through(cg, l, min_len=3, forbid_nodes=set(range(cg.n)) - seg)
    return _first(g, h, [(set(k), ())], "NonTrivialSegmentGlue")


def glue_all(g: MultiGraph, h: TwoEdgeCover):
    """Drive gluing to a single spanning 2EC component; returns the final
    cover and the ordered step list.  h must be a canonical, bridgeless,
    triangle-free 2-edge cover of the simple 2EC host g (see the module
    docstring for why the loop then ends)."""
    steps = []
    while len(comps := h.decomposition.components) > 1:
        l = _huge_node(h)
        cg = contract_many(g, comps)
        if l is None:
            h, step = make_huge(g, h)
        elif len(seg := segment_of(cg, l)) > 1:
            h, step = glue_nontrivial_segment(g, h, cg, l, seg)
        else:
            h, step = glue_trivial_segment(g, h, cg, l)
        steps.append(step)
    return h, steps
