"""Recursive reduction of an arbitrary 2EC input to structured graphs.

Dispatch order per call: exact solve on small graphs, 1-vertex-cut split,
self-loop/parallel removal, contractible-subgraph contraction, irrelevant-edge
removal, non-isolating-2-cut split (substituted procedure), large-3-cut
elimination, and finally the structured-leaf solver callback.

`graph.find_min_patch` answers every "smallest completion" question: the
patches that rejoin split sides and the exact inside count that certifies a
contractible subgraph.  The exact base case is `graph.min_2ecss`; the
reference oracle serves only the final check of the assembled solution.

A large 3-cut with a small side is removed with the minimum solutions of
each type (A, B1, B2, C1, C2, C3) on that side.  Each type is one
`DegreeSearch` with the degree demands the type forces on the cut, a proven
floor on its size and a completion that decides the type from the 2EC
classes of the partial set; `_typed_branch` caps each search by the values
found before it, so a search that cannot change the branch ends at once.

Edge ids are stable across induced subgraphs and contractions, so recursive
solutions compose by plain set union; dummy edges added for the 3-cut gadgets
get fresh ids and are stripped from recursive answers before reassembly.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from . import oracle
from .errors import (BudgetExceeded, NotTwoEdgeConnected, PatchNotFound,
                     StructuredViolation, Untypeable)
from .graph import (DegreeSearch, EdgeSubset, MultiGraph,
                    connected_components, contract,
                    find_contractible_certificate, find_min_patch,
                    find_vertex_cut, induced_subgraph, is_2ec_edge_set,
                    is_two_edge_connected, iterate_vertex_cuts, low_link,
                    member_adjacency, member_components, min_2ecss,
                    splitting_vertices, three_cut_core, two_ec_classes)

SOLUTION_TYPES = ("A", "B1", "B2", "C1", "C2", "C3")
TYPE_ORDER = {t: i for i, t in enumerate(SOLUTION_TYPES)}      # A strongest
_NEEDED_COMPONENTS = {"A": 1, "B1": 1, "C1": 1, "B2": 2, "C2": 2, "C3": 3}
_CUT_DEMAND = {"A": 2, "B1": 1, "C1": 1, "B2": 0, "C2": 0, "C3": 0}

TYPED_NODE_BUDGET = 400_000       # per typed enumeration
TYPED_ENUM_MAX = 20               # G1 size cap for typed enumeration
MAX_DEPTH = 300                   # recursion guard
ORACLE_NODE_BUDGET = 5 * 10 ** 6  # per exact base-case solve


@dataclass
class ReductionConfig:
    alpha: Fraction = Fraction(5, 4)
    epsilon: Fraction = Fraction(1, 24)
    enumeration_budget: int = 12          # n0: exact-solve vertex cap

    def __post_init__(self):
        self.alpha = Fraction(self.alpha)
        self.epsilon = Fraction(self.epsilon)
        if self.alpha < Fraction(5, 4):
            raise ValueError("alpha must be >= 5/4")
        if not (0 < self.epsilon <= Fraction(1, 24)):
            raise ValueError("epsilon must lie in (0, 1/24]")
        if self.enumeration_budget < 2:
            # a smaller cap sends 1- and 2-vertex graphs down the dispatch,
            # which cannot solve them
            raise ValueError("enumeration_budget must be >= 2")
        # fixed by epsilon, and read at every recursion level
        self.base_case_limit = math.floor(4 / self.epsilon)
        self.small_side_limit = math.floor(2 / self.epsilon - 4)


class _TypedBranchFailed(Exception):
    """Internal: a typed 3-cut branch could not be completed; the caller falls
    back to the both-sides-contracted branch, which is unconditionally safe."""


# ---------------------------------------------------------------------------
# solution-type classification

def classify_solution_type(h: EdgeSubset, cut) -> str:
    """Type of the edge set h w.r.t. the 3 cut vertices, or Untypeable."""
    adj = member_adjacency(h.host, h.members)
    n_comps, comp_of, bridges, _ = low_link(h.host.n, adj)
    cuts_in = [set() for _ in range(n_comps)]
    for x in cut:
        cuts_in[comp_of[x]].add(x)
    if not all(cuts_in):
        raise Untypeable("a component contains none of the cut vertices")
    if n_comps > 3:
        raise Untypeable(f"{n_comps} components")

    n_classes, class_of = two_ec_classes(len(adj), adj, bridges)
    # degree of each 2EC class in its component's bridge tree
    tree_deg = [0] * n_classes
    for v, nbrs in enumerate(adj):
        for _, e in nbrs:
            if e in bridges:
                tree_deg[class_of[v]] += 1
    classes = [set() for _ in range(n_comps)]
    for v, c in enumerate(class_of):
        classes[comp_of[v]].add(c)
    infos = [_component_shape(classes[i], cuts_in[i], class_of, tree_deg)
             for i in range(n_comps)]
    # info: (num_classes, is_path, end_cut_counts, cuts_here, cut_to_class_distinct)

    if n_comps == 1:
        nclasses, is_path, end_counts, cuts_here, distinct = infos[0]
        if nclasses == 1:
            return "A"
        if is_path and sum(end_counts) == 3 and max(end_counts) <= 2:
            return "B1"
        if distinct == 3:
            return "C1"
        raise Untypeable("single component fits neither A, B1 nor C1")
    if n_comps == 2:
        infos.sort(key=lambda i: len(i[3]), reverse=True)
        big, small = infos
        if len(small[3]) != 1:
            raise Untypeable("two components but cut split is not 2+1")
        if big[0] == 1 and small[0] == 1:
            return "B2"
        if (big[1] and big[0] >= 2 and big[2] == (1, 1) and small[0] == 1):
            return "C2"
        raise Untypeable("two components fit neither B2 nor C2")
    if all(i[0] == 1 and len(i[3]) == 1 for i in infos):
        return "C3"
    raise Untypeable("three components but not three isolated super-nodes")


def _component_shape(classes, cuts_here, class_of, tree_deg):
    """Summarize one component from its 2EC classes and their bridge-tree
    degrees."""
    degs = [tree_deg[c] for c in classes]
    is_path = len(classes) >= 2 and max(degs) <= 2 and degs.count(1) == 2
    end_counts = tuple(sorted(
        sum(1 for x in cuts_here if class_of[x] == c)
        for c in classes if tree_deg[c] == 1)) if is_path else ()
    distinct = len({class_of[x] for x in cuts_here})
    return (len(classes), is_path, end_counts, cuts_here, distinct)


# ---------------------------------------------------------------------------
# minimum typed subgraph enumeration

def _typed_completion(g1: MultiGraph, cut, t, pair=None):
    """`DegreeSearch` completion for type t, called once every vertex meets
    its demand; with `pair` (type C2), only sets whose two-cut component
    holds exactly that pair of cut vertices are accepted.

    Adding edges only merges components and 2EC classes.  So with fewer
    components than the type needs the set is a dead end; a component
    without a cut vertex must be left by a new edge; and with too many
    components some two must be joined.  Once the count is the type's and
    every component holds a cut vertex, a solution superset adds no edge
    between two components (the count would fall) and, if it is minimum,
    none inside a 2EC class (dropping it keeps every class, bridge and
    demand).  So only undecided edges joining two classes of one component
    can help, and a leaf class of a bridge tree changes only when one of
    them leaves it.  Per type:

    - A, B2, C3: a bridgeless set is the type.  Otherwise each leaf class
      must be left; branch across the leaf with the fewest such edges.
    - C1: the type exactly when the cut vertices lie in three classes;
      two in one class stay in one, so the set is a dead end otherwise.
    - C2: a dead end when the two cut vertices that share a component
      share a class, or are not `pair`.  A leaf class without a cut vertex
      must be left: branch across it.  Otherwise the one-cut component is
      one class (it would have two leaves) and the other a path with one
      of the pair in each end class: type C2.
    - B1: a dead end when one class holds the three cut vertices.  A leaf
      class without a cut vertex must be left: branch across it.  With
      three leaves, one cut vertex in each, two of them must end in one
      class, so of any two leaves one must be left: branch across the pair
      whose crossing edges have the smallest union.  With two leaves the
      bridge tree is a path, and a cut vertex in a middle class reaches an
      end only when a new edge's tree path passes through that class:
      branch on those edges.  Otherwise the set is type B1."""
    needed = _NEEDED_COMPONENTS[t]
    emap = g1.edge_map()
    cands = [(e, u, v) for e, u, v in sorted(g1.edges) if u != v]
    cut = sorted(cut)

    def complete(inc, exc):
        # components of the partial solution (isolated vertices included)
        n_comps, comp_of = member_components(g1, inc)
        if n_comps < needed:
            return []
        with_cut = {comp_of[x] for x in cut}
        lone = next((c for c in range(n_comps) if c not in with_cut), None)
        if lone is not None:
            return [e for e, u, v in cands
                    if e not in exc and e not in inc
                    and (comp_of[u] == lone) != (comp_of[v] == lone)]
        if n_comps > needed:
            return [e for e, u, v in cands
                    if e not in exc and e not in inc and comp_of[u] != comp_of[v]]
        adj = member_adjacency(g1, inc)
        bridges = low_link(g1.n, adj)[2]
        if not bridges and t in ("A", "B2", "C3"):
            return None
        class_of = two_ec_classes(g1.n, adj, bridges)[1]
        at = {class_of[x] for x in cut}
        if t == "C1":
            return None if len(at) == 3 else []
        if t == "C2":
            p = next(p for p in itertools.combinations(cut, 2)
                     if comp_of[p[0]] == comp_of[p[1]])
            if class_of[p[0]] == class_of[p[1]] or pair not in (None, p):
                return []
        if t == "B1" and len(at) == 1:
            return []
        tree_deg = Counter(class_of[x] for e in bridges for x in emap[e])
        leaves = sorted(c for c, k in tree_deg.items() if k == 1)
        open_ = [(e, class_of[u], class_of[v]) for e, u, v in cands
                 if e not in inc and e not in exc
                 and comp_of[u] == comp_of[v] and class_of[u] != class_of[v]]

        def across(*classes):
            return [e for e, a, b in open_ if a in classes or b in classes]

        if t in ("A", "B2", "C3"):
            return min(map(across, leaves), key=len)
        free = [c for c in leaves if c not in at]
        if free:
            return min(map(across, free), key=len)
        if t == "C2":
            return None
        if len(leaves) == 3:
            return min(itertools.starmap(across,
                                         itertools.combinations(leaves, 2)),
                       key=len)
        middle = [c for c in at if tree_deg[c] == 2]
        if not middle:
            return None
        tree = {c: [] for c in tree_deg}
        for e in bridges:
            a, b = (class_of[x] for x in emap[e])
            tree[a].append(b)
            tree[b].append(a)
        pos = {leaves[0]: 0}
        walk = leaves[0]
        while len(pos) < len(tree):
            walk = next(c for c in tree[walk] if c not in pos)
            pos[walk] = len(pos)
        return min(([e for e, a, b in open_
                     if min(pos[a], pos[b]) <= pos[m] <= max(pos[a], pos[b])]
                    for m in sorted(middle)), key=len)
    return complete


def _type_floor(n, t):
    """A lower bound on the size of every type-t set on n vertices (see
    `enumerate_min_typed_subgraph`)."""
    if t in ("A", "B1"):
        return n
    if t in ("B2", "C1"):
        return n - 1
    if t == "C2" or n > 3:
        return n - 2
    return 0                       # C3 on the three cut vertices alone


def enumerate_min_typed_subgraph(g1: MultiGraph, cut, t: str,
                                 collect_all: bool = False, cap=None,
                                 pair=None):
    """(min value, list of minimum edge sets) of type t with at most `cap`
    edges, or (None, []).  With `pair` (type C2 only) the sets are those
    whose two-cut component holds that pair of cut vertices.

    Vertices outside the cut need degree >= 2 (their solution edges are
    confined to g1).  A cut vertex needs degree 2 for A (the one spanning
    2EC class has n >= 3 vertices), 1 for B1 and C1 (one component spans
    every vertex) and for each vertex of `pair` (its component has two
    classes), and 0 otherwise: a cut vertex may be alone in its component
    in B2, C2 and C3.  The search's floor, with n = |V(g1)|:

    - A and B1: n.  An A set is spanning and bridgeless.  A B1 set is
      spanning and connected, and its end class holding two cut vertices
      contains a cycle.
    - B2 and C1: n - 1.  C1 is spanning and connected.  B2's component
      with two cut vertices is one class, so it contains a cycle, and the
      other component is connected.
    - C2 and C3: n - 2.  C2 has two components.  C3 has three, each one
      class; for n > 3 one of them holds a vertex outside the cut, so it
      contains a cycle (C3 on the three cut vertices alone is empty)."""
    cut = set(cut)
    demand = [_CUT_DEMAND[t] if v in cut else 2 for v in range(g1.n)]
    for x in pair or ():
        demand[x] = 1
    return DegreeSearch(g1, demand, TYPED_NODE_BUDGET,
                        _typed_completion(g1, cut, t, pair),
                        f"typed enumeration budget for {t}",
                        collect_all, cap, _type_floor(g1.n, t)).solve()


# ---------------------------------------------------------------------------
# the reduction driver

def reduce(g: MultiGraph, cfg: ReductionConfig, structured_solver):
    """Returns (EdgeSubset solution, ctx).  `ctx["trace"]` records every
    applied step with enough data to replay reassembly; `ctx["exact"]` holds
    the exact base case's result when g itself was small enough for it."""
    ctx = {"certified": True, "trace": [], "notes": []}
    members = _reduce(g, cfg, structured_solver, ctx, 0)
    sol = EdgeSubset(g, frozenset(members))
    if not oracle.verify_2ecss(g, sol.members):
        raise AssertionError("reduction produced an infeasible solution")
    return sol, ctx


def _note(ctx, message):
    ctx["notes"].append(message)
    ctx["certified"] = False


def _reduce(g: MultiGraph, cfg, solver, ctx, depth):
    if depth > MAX_DEPTH:
        raise AssertionError("reduction recursion exceeded its depth guard")
    if not is_two_edge_connected(g):
        raise NotTwoEdgeConnected(
            "graph is not 2-edge-connected" +
            (" (mid-recursion: invariant violation)" if depth else ""))
    n = g.n
    threshold = min(cfg.base_case_limit, cfg.enumeration_budget)
    if n <= threshold:
        res = min_2ecss(g, ORACLE_NODE_BUDGET)
        if depth == 0:
            ctx["exact"] = res         # the input's own exact solve
        if res is not None:
            if not res.certified:
                _note(ctx, f"exact solve at n={n} ran out of its node budget; "
                           f"using its best solution")
            ctx["trace"].append({"step": "brute-force", "n": n,
                                 "size": res.value})
            return set(res.witness.members)
        _note(ctx, f"exact solve at n={n} ran out of its node budget "
                   f"without a solution; reducing further")
        if n == 2:
            # the dispatch would drop one edge of the only parallel pair
            # kept and leave a bridge; any two parallel edges are optimal
            pair = sorted(e for e, u, v in g.edges if u != v)[:2]
            ctx["trace"].append({"step": "brute-force", "n": n, "size": 2})
            return set(pair)
    if n <= cfg.base_case_limit:
        # eligible for a full exact solve, but over the configured budget
        if ctx["certified"]:
            _note(ctx, f"n={n} <= 4/eps clipped by enumeration budget "
                       f"{cfg.enumeration_budget}")

    cut1 = find_vertex_cut(g, 1)
    if cut1 is not None:
        comps = connected_components(g, cut1)
        ctx["trace"].append({"step": "1-cut-split", "cut": list(cut1),
                             "parts": len(comps)})
        out = set()
        for comp in comps:
            sub, _ = induced_subgraph(g, comp + list(cut1))
            out |= _reduce(sub, cfg, solver, ctx, depth + 1)
        return out

    redundant = g.redundant_edges()
    if redundant:
        for eid in redundant:
            ctx["trace"].append({"step": "drop-redundant-edge", "edge": eid})
        return _reduce(g.without_edges(redundant), cfg, solver, ctx, depth + 1)

    found = find_contractible_certificate(g, cfg.alpha)
    if found is not None:
        c_edges, justification = found
        return _contract_step(g, cfg, solver, ctx, depth, c_edges,
                              "contract-subgraph", justification)

    irrelevant = _find_irrelevant_edges(g)
    if irrelevant:
        for eid in irrelevant:
            ctx["trace"].append({"step": "drop-irrelevant-edge", "edge": eid})
        return _reduce(g.without_edges(irrelevant), cfg, solver, ctx,
                       depth + 1)

    # the first 2-cut that does not just isolate one vertex
    for cut2 in iterate_vertex_cuts(g, 2):
        comps = connected_components(g, cut2)
        if len(comps) >= 3 or min(map(len, comps)) > 1:
            return _handle_two_cut(g, cut2, comps, cfg, solver, ctx, depth)

    split = _find_large_three_cut(g)
    if split is not None:
        return handle_large_3vc(g, split, cfg,
                                lambda sub: _reduce(sub, cfg, solver, ctx,
                                                    depth + 1), ctx)

    return _structured_leaf(g, cfg, solver, ctx, depth)


def _structured_leaf(g, cfg, solver, ctx, depth):
    try:
        members = solver(g)
    except StructuredViolation as sv:
        if sv.edges:
            _note(ctx, f"leaf reported a non-structured witness: {sv}")
            return _contract_step(g, cfg, solver, ctx, depth, set(sv.edges),
                                  "contract-violation-witness",
                                  sv.justification)
        raise
    ctx["trace"].append({"step": "structured-leaf", "n": g.n,
                         "size": len(members)})
    return set(members)


def _contract_step(g, cfg, solver, ctx, depth, c_edges, label, justification):
    if not is_2ec_edge_set(g, c_edges):
        raise AssertionError("contraction witness is not 2EC")
    emap = g.edge_map()
    s = {x for e in c_edges for x in emap[e]}
    ctx["trace"].append({"step": label, "vertices": sorted(s),
                         "edges": sorted(c_edges),
                         "justification": justification})
    rest = _reduce(contract(g, s), cfg, solver, ctx, depth + 1)
    return set(c_edges) | rest


def _find_irrelevant_edges(g: MultiGraph):
    """Every edge whose endpoint pair {u, v} is a 2-vertex cut, ordered by
    pair, then by id.

    {u, v} with u < v is a cut exactly when v splits G - u, so each u costs
    one low-link pass that tests only u's edges to higher vertices.  Deleting
    such an edge reconnects no cut, so the rest stay irrelevant and the
    whole set can be dropped at once.  When G is connected without a cut
    vertex, every part of G - {u, v} holds neighbors of both (else the other
    cuts it off), so adjacent u and v each have >= 3 distinct neighbors."""
    adj = g.adjacency()
    n_comps, _, _, points = low_link(g.n, adj)
    wide = [n_comps > 1 or bool(points) or m.bit_count() >= 3
            for m in g.neighbor_masks()]
    out = []
    for u in range(g.n):
        if wide[u] and any(w > u and wide[w] for w, _ in adj[u]):
            splitters = splitting_vertices(adj, {u})
            out += [e for w, e in adj[u] if w > u and w in splitters]
    return out


def _handle_two_cut(g, cut, comps, cfg, solver, ctx, depth):
    """Substituted non-isolating-2-cut reduction: split at the cut {u,v}
    into the first component of G - {u,v} and the rest, contract the pair on
    each closed side, recurse, rejoin with a minimum patch."""
    u, v = cut
    _note(ctx, f"non-isolating 2-cut substitute procedure at {{{u},{v}}}")
    side_a = set(comps[0])
    side_b = set().union(*comps[1:])
    out = set()
    for side in (side_a, side_b):
        sub, vmap = induced_subgraph(g, side | {u, v})
        out |= _reduce(contract(sub, {vmap[u], vmap[v]}), cfg, solver, ctx,
                       depth + 1)
    patch = find_min_patch(g, out, 4)
    if len(patch) > 2:
        _note(ctx, f"2-cut patch exceeded bound 2 (size {len(patch)})")
    ctx["trace"].append({"step": "2-cut-split", "cut": [u, v],
                         "patch": sorted(patch)})
    return out | patch


def _find_large_three_cut(g: MultiGraph):
    """First 3-vertex cut admitting a side grouping with both sides >= 7.

    Returns (cut vertices, V1, V2) with |V1| <= |V2|, or None.  The
    components of G - cut always hold n - 3 vertices, so below 17 vertices
    no cut qualifies and the scan is skipped.  It is skipped too when fewer
    than 7 vertices lie outside `three_cut_core`: every component of G - cut
    but one lies outside the core, so one side would."""
    total = g.n - 3
    if total < 14 or g.n - len(three_cut_core(g)) < 7:
        return None
    for cut in iterate_vertex_cuts(g, 3):
        comps = connected_components(g, cut)
        k = len(comps)
        for pick in range(1, 2 ** (k - 1)):
            v1 = set()
            for i in range(k):
                if pick >> i & 1:
                    v1.update(comps[i])
            if 7 <= len(v1) and 7 <= total - len(v1):
                v2 = set().union(*comps) - v1
                if len(v1) > len(v2):
                    v1, v2 = v2, v1
                return cut, v1, v2
    return None


# ---------------------------------------------------------------------------
# large-3-cut handling

def handle_large_3vc(g: MultiGraph, split, cfg: ReductionConfig, recurse, ctx):
    cut, v1, v2 = split
    u, v, w = cut
    g1, map1 = induced_subgraph(g, v1 | set(cut))
    chord_ids = [e for e, a, b in g.edges if a in cut and b in cut and a != b]
    g2, map2 = induced_subgraph(g, v2 | set(cut), extra_drop=chord_ids)

    if len(v1) > cfg.small_side_limit or g1.n > TYPED_ENUM_MAX:
        if g1.n > TYPED_ENUM_MAX and len(v1) <= cfg.small_side_limit:
            _note(ctx, f"typed enumeration skipped: |V(G1)|={g1.n} over cap")
        return _both_large_branch(g, g1, map1, g2, map2, cut, recurse, ctx)

    try:
        return _typed_branch(g, g1, map1, g2, map2, cut, cfg, recurse, ctx)
    except (_TypedBranchFailed, BudgetExceeded, PatchNotFound,
            NotTwoEdgeConnected, Untypeable) as exc:
        _note(ctx, f"typed 3-cut branch abandoned ({exc}); "
                   f"using both-sides-contracted fallback")
        return _both_large_branch(g, g1, map1, g2, map2, cut, recurse, ctx)


def _both_large_branch(g, g1, map1, g2, map2, cut, recurse, ctx):
    out = set()
    for gi, mp in ((g1, map1), (g2, map2)):
        out |= recurse(contract(gi, {mp[x] for x in cut}))
    patch = find_min_patch(g, out, 6)
    if len(patch) > 4:
        _note(ctx, f"3-cut join patch exceeded bound 4 (size {len(patch)})")
    ctx["trace"].append({"step": "3-cut-both-large", "cut": list(cut),
                         "patch": sorted(patch)})
    return out | patch


def _typed_branch(g, g1, map1, g2, map2, cut, cfg, recurse, ctx):
    local_cut = [map1[x] for x in cut]
    g2_is_2ec = is_two_edge_connected(g2)

    # The branch needs the minimum type (ties go to the type first in
    # TYPE_ORDER) and B1 when it is within 1 of the minimum.  A goes first,
    # uncapped; B2, C1, C2 and C3 follow in TYPE_ORDER, each counting only
    # below every value before it, so each is capped at that value - 1; B1
    # goes last, capped at the minimum + 1.  C3 fits only a 2EC far side:
    # a 2EC far side admits type A, which is compatible with everything;
    # otherwise only the cheap exactly-checkable case (C3 requires type A)
    # is decided
    opts = {}
    smallest = None
    for t in ("A", "B2", "C1", "C2", "C3", "B1"):
        if t == "C3" and not g2_is_2ec:
            continue
        cap = None if smallest is None else smallest + (1 if t == "B1" else -1)
        val, sols = enumerate_min_typed_subgraph(g1, local_cut, t,
                                                 collect_all=t == "C3",
                                                 cap=cap)
        if val is not None:
            opts[t] = (val, sols)
            if t != "B1":
                smallest = val
    if not opts:
        raise _TypedBranchFailed("no typed solution exists on the small side")

    t_min = min(opts, key=lambda t: (opts[t][0], TYPE_ORDER[t]))
    opt_min = opts[t_min][0]

    if t_min == "A":
        # a spanning 2EC subgraph of G1 exists at minimum size; treat it as a
        # contractible-subgraph step (the analysis excludes this case only
        # under the full contractibility scan, which we deliberately weaken)
        sol = min(opts["A"][1])
        _note(ctx, "3-cut t_min=A handled as a contraction step")
        ctx["trace"].append({"step": "3-cut-contract-A", "cut": list(cut)})
        emap = g.edge_map()
        s = set()
        for e in sol:
            a, b = emap[e]
            s.add(a)
            s.add(b)
        return set(sol) | recurse(contract(g, s))

    if "B1" in opts and opts["B1"][0] <= opt_min + 1:
        return _simple_typed_branch(g, g2, map2, cut, "B1", opts["B1"][1][0],
                                    bound=1, recurse=recurse, ctx=ctx)
    if t_min == "B2":
        return _simple_typed_branch(g, g2, map2, cut, "B2", opts["B2"][1][0],
                                    bound=2, recurse=recurse, ctx=ctx)
    if t_min == "C1":
        return _simple_typed_branch(g, g2, map2, cut, "C1", opts["C1"][1][0],
                                    bound=2, recurse=recurse, ctx=ctx)
    if t_min == "C2":
        return _c2_branch(g, g1, map1, g2, map2, cut,
                          _c2_patterns(g1, local_cut, *opts["C2"]),
                          recurse, ctx)
    if t_min == "C3":
        return _c3_branch(g, g1, map1, g2, map2, cut, opts["C3"][1],
                          recurse, ctx)
    raise _TypedBranchFailed(f"unhandled minimum type {t_min}")


def _simple_typed_branch(g, g2, map2, cut, t, opt1, bound, recurse, ctx):
    h2 = recurse(contract(g2, {map2[x] for x in cut}))
    base = set(opt1) | set(h2)
    patch = find_min_patch(g, base, bound)
    ctx["trace"].append({"step": f"3-cut-{t}", "cut": list(cut),
                         "patch": sorted(patch)})
    return base | patch


def _c2_patterns(g1, local_cut, value, sols):
    """One minimum C2 set for each cut pair that can span the path
    component, by pair: the unrestricted search's set for its own pair,
    the first set of a pair-restricted search capped at `value` for each
    other pair."""
    (first,) = sols
    comp_of = member_components(g1, first)[1]
    patterns = {}
    for pair in itertools.combinations(sorted(local_cut), 2):
        if comp_of[pair[0]] == comp_of[pair[1]]:
            patterns[pair] = [first]
        else:
            found = enumerate_min_typed_subgraph(g1, local_cut, "C2",
                                                 cap=value, pair=pair)[1]
            if found:
                patterns[pair] = found
    return patterns


def _c2_branch(g, g1, map1, g2, map2, cut, patterns, recurse, ctx):
    local_cut = [map1[x] for x in cut]
    to_host = {map1[x]: x for x in cut}
    pairs = sorted(patterns)
    if len(pairs) == 1:
        subcase = "i"
        pu, pv = pairs[0]
        named = (to_host[pu], to_host[pv],
                 to_host[next(x for x in local_cut if x not in pairs[0])])
        cands = patterns[pairs[0]]
        delta_bound = -2
    elif len(pairs) == 2:
        subcase = "ii"
        shared = set(pairs[0]) & set(pairs[1])
        if len(shared) != 1:
            raise _TypedBranchFailed("C2 patterns do not share a vertex")
        vmid = next(iter(shared))
        others = sorted(set(local_cut) - shared)
        named = (to_host[others[0]], to_host[vmid], to_host[others[1]])
        cands = [s for p in pairs for s in patterns[p]]
        delta_bound = -3
    else:
        subcase = "iii"
        named = tuple(cut)
        cands = [s for p in pairs for s in patterns[p]]
        delta_bound = -2

    nu, nv, nw = named
    g2x = g2.copy()
    lu, lv, lw = map2[nu], map2[nv], map2[nw]
    dummies = []
    if subcase == "i":
        y = g2x.n
        g2x = _with_vertex(g2x)
        dummies = [g2x.add_edge(lu, y), g2x.add_edge(lv, y),
                   g2x.add_edge(lv, lw)]
    elif subcase == "ii":
        y = g2x.n
        z = g2x.n + 1
        g2x = _with_vertex(_with_vertex(g2x))
        dummies = [g2x.add_edge(lu, y), g2x.add_edge(lv, z),
                   g2x.add_edge(z, y), g2x.add_edge(lw, y)]
    else:
        y = g2x.n
        g2x = _with_vertex(g2x)
        dummies = [g2x.add_edge(lu, y), g2x.add_edge(lv, y),
                   g2x.add_edge(lw, y)]

    raw = recurse(g2x)
    h2 = set(raw) - set(dummies)
    used_dummies = len(set(raw) & set(dummies))
    for opt1 in cands:
        base = set(opt1) | h2
        try:
            patch = find_min_patch(g, base, 1)
        except PatchNotFound:
            continue
        delta = len(patch) - used_dummies
        if delta > delta_bound:
            raise _TypedBranchFailed(
                f"C2({subcase}) accounting delta {delta} > {delta_bound}")
        ctx["trace"].append({"step": f"3-cut-C2-{subcase}", "cut": list(cut),
                             "patch": sorted(patch), "delta": delta})
        return base | patch
    raise _TypedBranchFailed("no C2 candidate admits a patch of size <= 1")


def _c3_branch(g, g1, map1, g2, map2, cut, sols, recurse, ctx):
    local_cut = [map1[x] for x in cut]
    to_host = {map1[x]: x for x in cut}
    # pick a solution and a middle-vertex naming with the two required
    # G1-edges between C(u)-C(v) and C(v)-C(w)
    chosen = None
    for sol in sols:
        comp_of = member_components(g1, sol)[1]
        for mid in local_cut:
            others = [x for x in local_cut if x != mid]
            if _edge_between_comps(g1, sol, comp_of, others[0], mid) is not None \
                    and _edge_between_comps(g1, sol, comp_of, mid, others[1]) is not None:
                chosen = (sol, others[0], mid, others[1])
                break
        if chosen:
            break
    if chosen is None:
        raise _TypedBranchFailed("no C3 solution admits the required edges")
    sol, lu, lv, lw = chosen
    hu, hv, hw = map2[to_host[lu]], map2[to_host[lv]], map2[to_host[lw]]
    g2x = g2.copy()
    dummies = [g2x.add_edge(hu, hv), g2x.add_edge(hu, hv),
               g2x.add_edge(hv, hw), g2x.add_edge(hv, hw)]
    raw = recurse(g2x)
    h2 = set(raw) - set(dummies)
    used_dummies = len(set(raw) & set(dummies))
    base = set(sol) | h2
    patch = find_min_patch(g, base, 4)
    delta = len(patch) - used_dummies
    if delta > 0:
        raise _TypedBranchFailed(f"C3 accounting delta {delta} > 0")
    ctx["trace"].append({"step": "3-cut-C3", "cut": list(cut),
                         "patch": sorted(patch), "delta": delta})
    return base | patch


def _with_vertex(g: MultiGraph) -> MultiGraph:
    return MultiGraph(g.n + 1, list(g.edges), next_eid=g._next_eid)


def _edge_between_comps(g1, sol, comp_of, x, y):
    for e, a, b in sorted(g1.edges):
        if e in sol:
            continue
        if (comp_of[a] == comp_of[x] and comp_of[b] == comp_of[y]) or \
           (comp_of[b] == comp_of[x] and comp_of[a] == comp_of[y]):
            return e
    return None


# ---------------------------------------------------------------------------
# bound reporting

def verify_approx_bound(size: int, n: int, cfg: ReductionConfig,
                        certified: bool, opt: int | None = None):
    """Report on the approximation guarantee for one finished run."""
    report = {"size": size, "n": n, "alpha": str(cfg.alpha),
              "epsilon": str(cfg.epsilon), "certified": certified,
              "opt": opt, "ratio": None, "bound": None, "within_bound": None}
    if opt:
        report["ratio"] = size / opt
    if n <= cfg.base_case_limit:
        report["bound"] = "exact regime"
        report["within_bound"] = (opt is None) or size == opt
    elif certified and opt is not None:
        bound = cfg.alpha * opt + 4 * cfg.epsilon * n - 4
        report["bound"] = str(bound)
        report["within_bound"] = Fraction(size) <= bound
    return report
