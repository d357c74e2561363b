"""Recursive reduction of an arbitrary 2EC input to structured graphs.

Dispatch order per call: exact solve on small graphs, 1-vertex-cut split,
self-loop/parallel removal, contractible-subgraph contraction, irrelevant-edge
removal, non-isolating-2-cut split (substituted procedure), large-3-cut
elimination, and finally the structured-leaf solver callback.

`graph.find_min_patch` answers every "smallest completion" question: the
patches that rejoin split sides and the exact inside count that certifies a
contractible subgraph.  The oracle serves the base case and final check only.

Edge ids are stable across induced subgraphs and contractions, so recursive
solutions compose by plain set union; dummy edges added for the 3-cut gadgets
get fresh ids and are stripped from recursive answers before reassembly.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from . import oracle
from .errors import (BudgetExceeded, NotTwoEdgeConnected, PatchNotFound,
                     StructuredViolation, Untypeable)
from .graph import (DegreeSearch, EdgeSubset, MultiGraph, contract,
                    find_contractible_certificate, find_min_patch,
                    find_vertex_cut, induced_subgraph, is_two_edge_connected,
                    iterate_vertex_cuts, low_link, member_adjacency,
                    splitting_vertices, two_ec_classes)

SOLUTION_TYPES = ("A", "B1", "B2", "C1", "C2", "C3")
TYPE_ORDER = {t: i for i, t in enumerate(SOLUTION_TYPES)}      # A strongest
_NEEDED_COMPONENTS = {"A": 1, "B1": 1, "C1": 1, "B2": 2, "C2": 2, "C3": 3}

TYPED_NODE_BUDGET = 400_000       # per typed enumeration
CONTRACTIBLE_SCAN_BUDGET = 4000   # cycle-search nodes per contractibility scan
MAX_DEPTH = 300                   # recursion guard


@dataclass
class ReductionConfig:
    alpha: Fraction = Fraction(5, 4)
    epsilon: Fraction = Fraction(1, 24)
    enumeration_budget: int = 12          # n0: exact-solve vertex cap
    oracle_node_budget: int = 5 * 10 ** 6
    typed_enum_max: int = 20              # G1 size cap for typed enumeration

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

    @property
    def base_case_limit(self) -> int:
        return math.floor(4 / self.epsilon)

    @property
    def small_side_limit(self) -> int:
        return math.floor(2 / self.epsilon - 4)


class _TypedBranchFailed(Exception):
    """Internal: a typed 3-cut branch could not be completed; the caller falls
    back to the both-sides-contracted branch, which is unconditionally safe."""


# ---------------------------------------------------------------------------
# solution-type classification

def classify_solution_type(h: EdgeSubset, cut) -> str:
    adj = member_adjacency(h.host, h.members)
    return _classify(adj, set(cut), low_link(h.host.n, adj))


def _classify(adj, cut, links) -> str:
    """Type of the edge set behind `adj` w.r.t. the 3 cut vertices, or
    Untypeable; `links` is the `low_link` result for `adj`."""
    n_comps, comp_of, bridges, _ = links
    comps = [set() for _ in range(n_comps)]
    for v, c in enumerate(comp_of):
        comps[c].add(v)
    if any(not (c & cut) for c in comps):
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
    infos = [_component_shape(classes[i], comps[i] & cut, class_of, tree_deg)
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

def _typed_completion(g1: MultiGraph, cut, t):
    """`DegreeSearch` completion for type t, called once every non-cut
    vertex has degree 2."""
    needed = _NEEDED_COMPONENTS[t]
    emap = g1.edge_map()
    cands = [(e, u, v) for e, u, v in sorted(g1.edges) if u != v]

    def complete(inc, exc):
        # components of the partial solution (isolated vertices included)
        adj = member_adjacency(g1, inc)
        links = low_link(g1.n, adj)
        n_comps, comp_of, bridges, _ = links
        if n_comps < needed:
            return []              # adding edges can only merge further
        # a component without a cut vertex must grow outward
        with_cut = {comp_of[x] for x in cut}
        lone = next((c for c in range(n_comps) if c not in with_cut), None)
        if lone is not None:
            return [e for e, u, v in cands
                    if e not in exc and e not in inc
                    and (comp_of[u] == lone) != (comp_of[v] == lone)]
        # too many components: some pair must merge
        if n_comps > needed:
            return [e for e, u, v in cands
                    if e not in exc and e not in inc and comp_of[u] != comp_of[v]]
        # right component count; try classification
        try:
            if _classify(adj, cut, links) == t:
                return None
        except Untypeable:
            pass
        # type-A shape repair: branch across a leaf 2EC class
        if t == "A" and n_comps == 1 and bridges:
            class_of = two_ec_classes(g1.n, adj, bridges)[1]
            counts = {}
            for e in bridges:
                for x in emap[e]:
                    counts[class_of[x]] = counts.get(class_of[x], 0) + 1
            leaf = min(c for c, k in counts.items() if k == 1)
            return [e for e, u, v in cands
                    if e not in exc and e not in inc
                    and (class_of[u] == leaf) != (class_of[v] == leaf)
                    and e not in bridges]
        # generic completeness fallback: any strict superset solution
        # contains some currently-undecided edge
        return [e for e, _, _ in cands if e not in exc and e not in inc]
    return complete


def enumerate_min_typed_subgraph(g1: MultiGraph, cut, t: str,
                                 node_budget: int = TYPED_NODE_BUDGET,
                                 collect_all: bool = False):
    """(min value, list of minimum edge sets) of type t, or (None, []).

    Vertices outside the cut need degree >= 2 (their solution edges are
    confined to g1); cut vertices may be isolated."""
    cut = set(cut)
    return DegreeSearch(g1, cut, node_budget, _typed_completion(g1, cut, t),
                        f"typed enumeration budget for {t}",
                        collect_all).solve()


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
        res = oracle.exact_min_2ecss(g, cfg.oracle_node_budget)
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
        v = min(cut1.cut)
        out = set()
        ctx["trace"].append({"step": "1-cut-split", "cut": [v],
                             "parts": len(cut1.residual_components)})
        for comp in cut1.residual_components:
            sub, _ = induced_subgraph(g, set(comp) | {v})
            out |= _reduce(sub, cfg, solver, ctx, depth + 1)
        return out

    redundant = g.redundant_edges()
    if redundant:
        for eid in redundant:
            ctx["trace"].append({"step": "drop-redundant-edge", "edge": eid})
        return _reduce(g.without_edges(redundant), cfg, solver, ctx, depth + 1)

    found = find_contractible_certificate(
        g, cfg.alpha, max_vertices=min(cfg.base_case_limit, 7),
        cycle_budget=CONTRACTIBLE_SCAN_BUDGET)
    if found is not None:
        c_edges, justification = found
        return _contract_step(g, cfg, solver, ctx, depth, c_edges,
                              "contract-subgraph", justification)

    irr = _find_irrelevant_edge(g)
    if irr is not None:
        ctx["trace"].append({"step": "drop-irrelevant-edge", "edge": irr})
        return _reduce(g.without_edges([irr]), cfg, solver, ctx, depth + 1)

    cut2 = find_vertex_cut(g, 2, kind="TwoNonIsolating")
    if cut2 is not None:
        return _handle_two_cut(g, cut2, cfg, solver, ctx, depth)

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
    emap = g.edge_map()
    s = set()
    for e in c_edges:
        u, v = emap[e]
        s.add(u)
        s.add(v)
    # V(C) is one bridgeless component; every other vertex is isolated
    n_comps, _, bridges, _ = low_link(g.n, member_adjacency(g, c_edges))
    if n_comps != g.n - len(s) + 1 or bridges:
        raise AssertionError("contraction witness is not 2EC")
    if len(s) < 2:
        raise AssertionError("contraction witness too small")
    ctx["trace"].append({"step": label, "vertices": sorted(s),
                         "edges": sorted(c_edges),
                         "justification": justification})
    cm = contract(g, s)
    rest = _reduce(cm.result, cfg, solver, ctx, depth + 1)
    return set(c_edges) | rest


def _find_irrelevant_edge(g: MultiGraph):
    """Lowest-id edge of the lexicographically first endpoint pair {u, v}
    that is a 2-vertex cut, or None.

    {u, v} with u < v is a cut exactly when v splits G - u, so each u costs
    one low-link pass that tests only u's edges to higher vertices."""
    adj = g.adjacency()
    for u in range(g.n):
        splitters = splitting_vertices(adj, {u})
        for w, e in adj[u]:   # sorted: the first hit is its pair's lowest id
            if w > u and w in splitters:
                return e
    return None


def _handle_two_cut(g, cert, cfg, solver, ctx, depth):
    """Substituted non-isolating-2-cut reduction: split at {u,v}, contract
    the pair on each closed side, recurse, rejoin with a minimum patch."""
    u, v = sorted(cert.cut)
    _note(ctx, f"non-isolating 2-cut substitute procedure at {{{u},{v}}}")
    side_a = set(cert.residual_components[0])
    side_b = set().union(*cert.residual_components[1:])
    out = set()
    for side in (side_a, side_b):
        sub, vmap = induced_subgraph(g, side | {u, v})
        cm = contract(sub, {vmap[u], vmap[v]})
        out |= _reduce(cm.result, cfg, solver, ctx, depth + 1)
    patch, widened = find_min_patch(g, out, bound=2, widen_to=4)
    if widened:
        _note(ctx, f"2-cut patch exceeded bound 2 (size {len(patch)})")
    ctx["trace"].append({"step": "2-cut-split", "cut": [u, v],
                         "patch": sorted(patch)})
    return out | patch


def _find_large_three_cut(g: MultiGraph):
    """First ThreeLarge cut admitting a side grouping with both sides >= 7.

    Returns (cut vertices, V1, V2) or None."""
    for cert in iterate_vertex_cuts(g, 3):
        if cert.kind != "ThreeLarge":
            continue
        comps = sorted(cert.residual_components, key=min)
        k = len(comps)
        total = sum(len(c) for c in comps)
        if total < 14:
            continue
        for pick in range(1, 2 ** (k - 1)):
            v1 = set()
            for i in range(k):
                if pick >> i & 1:
                    v1 |= comps[i]
            if 7 <= len(v1) and 7 <= total - len(v1):
                v2 = set().union(*comps) - v1
                if len(v1) > len(v2):
                    v1, v2 = v2, v1
                return tuple(sorted(cert.cut)), v1, v2
    return None


# ---------------------------------------------------------------------------
# large-3-cut handling

def handle_large_3vc(g: MultiGraph, split, cfg: ReductionConfig, recurse, ctx):
    cut, v1, v2 = split
    u, v, w = cut
    g1, map1 = induced_subgraph(g, v1 | set(cut))
    chord_ids = [e for e, a, b in g.edges if a in cut and b in cut and a != b]
    g2, map2 = induced_subgraph(g, v2 | set(cut), extra_drop=chord_ids)

    if len(v1) > cfg.small_side_limit or g1.n > cfg.typed_enum_max:
        if g1.n > cfg.typed_enum_max and len(v1) <= cfg.small_side_limit:
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
        cm = contract(gi, {mp[x] for x in cut})
        out |= recurse(cm.result)
    patch, widened = find_min_patch(g, out, bound=4, widen_to=6)
    if widened:
        _note(ctx, f"3-cut join patch exceeded bound 4 (size {len(patch)})")
    ctx["trace"].append({"step": "3-cut-both-large", "cut": list(cut),
                         "patch": sorted(patch)})
    return out | patch


def _typed_branch(g, g1, map1, g2, map2, cut, cfg, recurse, ctx):
    local_cut = [map1[x] for x in cut]
    g2_is_2ec = is_two_edge_connected(g2)

    opts = {}
    for t in SOLUTION_TYPES:
        collect = t in ("C2", "C3")
        val, sols = enumerate_min_typed_subgraph(g1, local_cut, t,
                                                 collect_all=collect)
        if val is None:
            continue
        # compatibility with the far side: a 2EC far side admits type A,
        # which is compatible with everything; otherwise only the cheap
        # exactly-checkable case (C3 requires type A) is decided
        if t == "C3" and not g2_is_2ec:
            continue
        opts[t] = (val, sols)
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
        cm = contract(g, s)
        return set(sol) | recurse(cm.result)

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
        return _c2_branch(g, g1, map1, g2, map2, cut, opts["C2"][1],
                          recurse, ctx)
    if t_min == "C3":
        return _c3_branch(g, g1, map1, g2, map2, cut, opts["C3"][1],
                          recurse, ctx)
    raise _TypedBranchFailed(f"unhandled minimum type {t_min}")


def _simple_typed_branch(g, g2, map2, cut, t, opt1, bound, recurse, ctx):
    cm = contract(g2, {map2[x] for x in cut})
    h2 = recurse(cm.result)
    base = set(opt1) | set(h2)
    patch, widened = find_min_patch(g, base, bound=bound, widen_to=bound + 2)
    if widened:
        raise _TypedBranchFailed(f"{t} patch exceeded bound {bound}")
    ctx["trace"].append({"step": f"3-cut-{t}", "cut": list(cut),
                         "patch": sorted(patch)})
    return base | patch


def _c2_patterns(g1, local_cut, sols):
    """Which cut pair spans the path component, for each minimum C2 set."""
    patterns = {}
    for sol in sols:
        comp_of = _component_map(g1, sol)
        # the two cut vertices in one component form the path pair
        pair = next(p for p in itertools.combinations(sorted(local_cut), 2)
                    if comp_of[p[0]] == comp_of[p[1]])
        patterns.setdefault(pair, []).append(sol)
    return patterns


def _c2_branch(g, g1, map1, g2, map2, cut, sols, recurse, ctx):
    local_cut = [map1[x] for x in cut]
    to_host = {map1[x]: x for x in cut}
    patterns = _c2_patterns(g1, local_cut, sols)
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
            patch, widened = find_min_patch(g, base, bound=1)
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
        comp_of = _component_map(g1, sol)
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
    patch, widened = find_min_patch(g, base, bound=4)
    delta = len(patch) - used_dummies
    if delta > 0:
        raise _TypedBranchFailed(f"C3 accounting delta {delta} > 0")
    ctx["trace"].append({"step": "3-cut-C3", "cut": list(cut),
                         "patch": sorted(patch), "delta": delta})
    return base | patch


def _with_vertex(g: MultiGraph) -> MultiGraph:
    return MultiGraph(g.n + 1, list(g.edges), next_eid=g._next_eid)


def _component_map(g1, sol):
    return low_link(g1.n, member_adjacency(g1, sol))[1]


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
