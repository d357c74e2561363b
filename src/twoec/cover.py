"""Triangle-free 2-edge covers and their canonical form.

The minimum triangle-free 2-edge cover is computed by an exact desk-scale
branch-and-bound, `graph.DegreeSearch` with a completion that branches across
triangle components (a deliberate substitute for the polynomial-time
triangle-free 2-matching machinery, which is out of scope).  Canonicalization
is the bounded local search over swaps |F_A| <= |F_R| <= 2 that improves the
lexicographic objective (edges, components, bridges, cut vertices inside 2EC
components).

Each canonicalization step applies the first improving swap in a fixed order
(`_improving_move`).  Swaps are generated from degree deficits
(`_candidate_swaps`): a removal F_R leaves some vertices short of degree 2,
and only the F_A that make up every shortfall are produced, so no swap is
built just to be rejected for its degrees.  The objective of a candidate
comes from one low-link pass over its edges (`_objective`), which also spots
triangle components.
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass, field

from .errors import BudgetExceeded, Infeasible, NotCanonical
from .graph import (BlockDecomposition, DegreeSearch, MultiGraph, decompose,
                    low_link, member_adjacency, member_components)

TF_EXACT_MAX_N = 14               # largest input the exact TF cover search takes
TF_NODE_BUDGET = 5 * 10 ** 6      # its node budget, then the heuristic cover


@dataclass
class TwoEdgeCover:
    host: MultiGraph
    members: frozenset
    certified_minimum: bool = True
    # caches, so they change neither repr nor ==
    _decomp: BlockDecomposition | None = field(default=None, repr=False,
                                               compare=False)
    _kinds: list | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        self.members = frozenset(self.members)

    def __len__(self):
        return len(self.members)

    @property
    def decomposition(self) -> BlockDecomposition:
        if self._decomp is None:
            self._decomp = decompose(self.host, self.members)
        return self._decomp

    def component_edges(self, ci: int):
        return self.decomposition.component_edges[ci]

    def classification(self) -> list:
        """The kind of each component, by index: "Complex" when it has a
        bridge, else "Large2EC" with >= 8 edges, C4..C7 for 4-7 edges on as
        many vertices, else "Other".  Computed once and kept with the cover.

        A component that is not complex is connected and bridgeless.  A
        connected graph with as many edges as vertices has exactly one
        cycle, and a bridgeless one is that cycle, parallel pairs included
        (self-loops are never stored)."""
        if self._kinds is None:
            d = self.decomposition
            emap = self.host.edge_map()
            complex_ = {d.component_of[emap[e][0]] for e in d.bridges}
            self._kinds = [
                "Complex" if ci in complex_
                else "Large2EC" if len(edges) >= 8
                else f"C{len(edges)}" if 4 <= len(edges) == len(comp) <= 7
                else "Other"
                for ci, (comp, edges) in enumerate(zip(d.components,
                                                       d.component_edges))]
        return self._kinds

    def replace(self, members) -> "TwoEdgeCover":
        return TwoEdgeCover(self.host, frozenset(members),
                            self.certified_minimum)


# ---------------------------------------------------------------------------
# feasibility predicates

def is_tf_two_edge_cover(g: MultiGraph, members) -> bool:
    """Degree >= 2 everywhere and no triangle component."""
    emap = g.edge_map()
    deg = [0] * g.n
    for e in members:
        u, v = emap[e]
        deg[u] += 1
        deg[v] += 1
    if any(d < 2 for d in deg):
        return False
    return _triangle_component(g, members) is None


def _triangle_component(g: MultiGraph, members, comps=None):
    """Vertex set of the first component, by smallest vertex, of the edge
    set that is a triangle (3 vertices, 3 edges), or None.
    `comps` is `(n_components, component_of)` of the edge set when the
    caller has it."""
    n_comps, comp_of = comps or member_components(g, members)
    size = [0] * n_comps
    for c in comp_of:
        size[c] += 1
    if 3 not in size:
        return None
    emap = g.edge_map()
    edges = [0] * n_comps
    for e in members:
        edges[comp_of[emap[e][0]]] += 1
    tri = next((c for c in range(n_comps) if size[c] == edges[c] == 3), None)
    if tri is None:
        return None
    return {v for v, c in enumerate(comp_of) if c == tri}


# ---------------------------------------------------------------------------
# minimum triangle-free 2-edge cover (exact, with heuristic fallback)

def _tf_completion(g: MultiGraph):
    """`DegreeSearch` completion for a triangle-free cover: feasible without
    a triangle component, else branch over the undecided edges leaving the
    first one."""
    edges = sorted(g.edges)

    def complete(inc, exc):
        tri = _triangle_component(g, inc)
        if tri is None:
            return None
        return [e for e, u, v in edges if e not in exc and e not in inc
                and (u in tri) != (v in tri)]
    return complete


def _heuristic_cover(g: MultiGraph):
    """Greedy 2-edge cover then triangle elimination; uncertified."""
    deg = [0] * g.n
    members = set()
    # greedily satisfy degree demands, preferring edges fixing two deficits;
    # the caller rejects degree < 2 and the second round takes every edge at
    # a vertex still short, so no vertex is left short
    edges = sorted(g.edges)
    for rounds in range(2):
        for eid, u, v in edges:
            if eid in members:
                continue
            gain = (1 if deg[u] < 2 else 0) + (1 if deg[v] < 2 else 0)
            if gain >= 2 - rounds:
                members.add(eid)
                deg[u] += 1
                deg[v] += 1
    # fix triangle components by adding a crossing edge
    while True:
        tri = _triangle_component(g, members)
        if tri is None:
            break
        eid = next((eid for eid, u, v in edges
                    if eid not in members and (u in tri) != (v in tri)), None)
        if eid is None:
            break
        members.add(eid)
    return members


def min_triangle_free_cover(g: MultiGraph) -> TwoEdgeCover:
    """Minimum triangle-free 2-edge cover; exact when |V| <= TF_EXACT_MAX_N."""
    if any(g.degree(v) < 2 for v in range(g.n)):
        raise Infeasible("a vertex has degree < 2")
    if g.n <= TF_EXACT_MAX_N:
        search = DegreeSearch(g, [2] * g.n, TF_NODE_BUDGET,
                              _tf_completion(g),
                              "triangle-free cover node budget")
        try:
            best, members = search.solve()
        except BudgetExceeded:
            pass                   # fall back to the heuristic cover
        else:
            if best is None:
                raise Infeasible("no triangle-free 2-edge cover exists")
            return TwoEdgeCover(g, members, certified_minimum=True)
    members = _heuristic_cover(g)
    if not is_tf_two_edge_cover(g, members):
        raise Infeasible("heuristic could not remove all triangle components")
    return TwoEdgeCover(g, frozenset(members), certified_minimum=False)


# ---------------------------------------------------------------------------
# canonical form

@dataclass(frozen=True)
class CanonicalViolation:
    kind: str     # SmallNonCycleComponent | PendantBlockUnder6 | NonPendantBlockUnder4
    witness: tuple


def check_canonical(h: TwoEdgeCover):
    """Empty list iff h satisfies the canonical-form definition."""
    d = h.decomposition
    kinds = h.classification()
    out = [CanonicalViolation("SmallNonCycleComponent", tuple(comp))
           for comp, kind in zip(d.components, kinds) if kind == "Other"]
    for bi, block in enumerate(d.blocks):
        if d.pendant_flags[bi] and len(block) < 6:
            out.append(CanonicalViolation("PendantBlockUnder6", tuple(block)))
        elif not d.pendant_flags[bi] and len(block) < 4 and \
                kinds[d.block_component[bi]] == "Complex":
            out.append(CanonicalViolation("NonPendantBlockUnder4", tuple(block)))
    return out


def swap(g: MultiGraph, h: TwoEdgeCover, added, removed):
    """The cover h - removed + added when it is a canonical triangle-free
    2-edge cover of g, else None: the test behind every glue and
    bridge-covering move."""
    members = (h.members - set(removed)) | set(added)
    if not is_tf_two_edge_cover(g, members):
        return None
    cand = h.replace(members)
    return None if check_canonical(cand) else cand


def _objective(g: MultiGraph, members):
    """(|F|, components, bridges, cut vertices inside bridgeless components)
    of the edge set F, from one low-link pass over its edges; None when F has
    a triangle component (3 vertices, 3 edges)."""
    links = low_link(g.n, member_adjacency(g, members))
    if _triangle_component(g, members, links[:2]) is not None:
        return None
    n_comps, comp_of, bridges, cut_vertices = links
    emap = g.edge_map()
    complex_comps = {comp_of[emap[e][0]] for e in bridges}
    cutv = sum(1 for v in cut_vertices if comp_of[v] not in complex_comps)
    return (len(members), n_comps, len(bridges), cutv)


def _candidate_swaps(g: MultiGraph, members, shrink_only=False):
    """Every swap (F_R, F_A), |F_A| <= |F_R| <= 2, that leaves each vertex
    with degree >= 2, in the order of the full enumeration (see
    `_improving_move`); with `shrink_only`, only those with |F_A| < |F_R|.

    For each F_R, need[x] = 2 - (deg[x] - loss[x]) on the vertices F_R
    pushes below degree 2.  An added edge lifts each endpoint by one, so a
    single added edge must touch every deficit vertex, and for F_A = (a, b),
    b must touch every vertex that a leaves short.  Those edges are looked
    up per vertex among the non-member edges; all of them lie in the pool,
    because a deficit vertex is an endpoint of F_R.
    """
    emap = g.edge_map()
    deg = [0] * g.n
    for e in members:
        u, v = emap[e]
        deg[u] += 1
        deg[v] += 1
    comp_of = member_components(g, members)[1]
    # (eid, u, v, joins two cover components), ascending by id
    non_members = [(e, u, v, comp_of[u] != comp_of[v])
                   for e, u, v in sorted(g.edges) if e not in members]
    # v -> ascending ids of the non-member edges at v
    at = [[] for _ in range(g.n)]
    for e, u, v, _ in non_members:
        at[u].append(e)
        at[v].append(e)

    def covering(need, after):
        """Non-member edges with id > `after` incident to every vertex of
        `need` (one or two vertices, each needing one more edge)."""
        x, *rest = need
        lst = at[x]
        tail = lst[bisect.bisect_right(lst, after):]
        if not rest:
            return tail
        y = rest[0]
        return [e for e in tail if y in emap[e]]

    for fr_size in (1, 2):
        for removed in itertools.combinations(sorted(members), fr_size):
            loss = {}
            for e in removed:
                u, v = emap[e]
                loss[u] = loss.get(u, 0) + 1
                loss[v] = loss.get(v, 0) + 1
            # need[x]: edges x must gain to get back to degree 2
            need = {x: k + 2 - deg[x] for x, k in loss.items() if deg[x] - k < 2}
            total = sum(need.values())
            if not need:
                yield removed, ()
            if fr_size == 1 and shrink_only:
                continue
            # An added edge lifts each of its two endpoints by one, so one
            # edge can make up the shortfall only if that is one edge at
            # each of at most two vertices.
            one_edge = total == len(need) <= 2
            if one_edge:
                pool = [e for e, u, v, joins in non_members
                        if joins or u in loss or v in loss]
                for a in covering(need, -1) if need else pool:
                    yield removed, (a,)
            if fr_size == 1 or shrink_only:
                continue
            # F_A = (a, b): b makes up what a leaves short.  When one edge
            # cannot make up the whole shortfall, a must touch a deficit
            # vertex, and it then always leaves some vertex short.
            firsts = pool if one_edge else sorted({e for x in need for e in at[x]})
            for a in firsts:
                au, av = emap[a]
                left = []       # vertices still one edge short after a
                for x, k in need.items():
                    if x == au or x == av:
                        k -= 1
                    if k:
                        left.append(x)
                        if k > 1:
                            break   # b alone cannot lift x by two
                else:
                    if not left:
                        for b in pool[bisect.bisect_right(pool, a):]:
                            yield removed, (a, b)
                    elif len(left) <= 2:
                        for b in covering(left, a):
                            yield removed, (a, b)


def _improving_move(g: MultiGraph, members, obj):
    """First improving swap (F_A added, F_R removed), |F_A| <= |F_R| <= 2.

    Enumeration order: F_R over `combinations(sorted(members), 1)` then
    `combinations(..., 2)`; for each F_R, F_A = () and then
    `combinations(pool, 1)` and `combinations(pool, 2)`, where the pool holds
    the non-member edges, ascending by id, that touch an endpoint of F_R or
    join two cover components.

    The first swap in this order whose result is a triangle-free 2-edge
    cover with a smaller objective is returned.  Only the swaps that keep
    every degree >= 2 are generated (`_candidate_swaps`).  That is exact: a
    swap leaving a vertex below degree 2 is no 2-edge cover, so it can never
    be returned, and skipping it keeps the order of the others, hence the
    same first improving swap.  The generated swaps have full degrees, so
    the only part of the triangle-free test left is the triangle-component
    check, which `_objective` makes.

    Two more cuts are exact for the same reason, as they drop only swaps
    that cannot improve.  A 2-edge cover has |F| >= n, and with |F| = n every
    degree is 2, so it has no bridge and no cut vertex: (n, 1, 0, 0) is the
    smallest objective, and at it there is no move.  At (|F|, 1, 0, 0) a swap
    that keeps |F| cannot get below the last three entries, so only the
    swaps with |F_A| < |F_R| are generated, in the same order.
    """
    if obj == (g.n, 1, 0, 0):
        return None
    for removed, added in _candidate_swaps(g, members,
                                           shrink_only=obj[1:] == (1, 0, 0)):
        new = (members - set(removed)) | set(added)
        nobj = _objective(g, new)
        if nobj is not None and nobj < obj:
            return new, nobj
    return None


def canonicalize(g: MultiGraph, h: TwoEdgeCover) -> TwoEdgeCover:
    """Local search to canonical form; raises NotCanonical if it stalls short.

    Each move strictly lowers the objective, a tuple of four bounded
    non-negative integers compared lexicographically, so no objective
    repeats and the loop ends.  The search stops at (n, 1, 0, 0), a spanning
    cycle, which no cover beats (see `_improving_move`).
    """
    if not is_tf_two_edge_cover(g, h.members):
        raise ValueError("input is not a triangle-free 2-edge cover")
    members = set(h.members)
    obj = _objective(g, members)
    while (got := _improving_move(g, members, obj)) is not None:
        members, obj = got
    out = h.replace(members)
    violations = check_canonical(out)
    if violations:
        raise NotCanonical(violations)
    return out
