"""Recursive reduction: dispatch steps, typed enumeration, 3-cut handling,
and end-to-end feasibility/optimality against the oracle."""

import hashlib
import itertools
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (complete_graph, cycle_graph, disjoint_cycles,
                      from_networkx, naive_is_2ecss, naive_min_2ecss, petersen,
                      subdivided)
from twoec.cover import TwoEdgeCover, canonicalize, min_triangle_free_cover
from twoec.errors import (BudgetExceeded, NotCanonical, NotTwoEdgeConnected,
                          PatchNotFound, StructuredViolation, Stuck,
                          Untypeable)
from twoec.generate import glued_cliques, random_2ec
from twoec.graph import (DegreeSearch, EdgeSubset, MultiGraph,
                         is_2ec_edge_set, member_components)
from twoec.oracle import exact_min_2ecss, verify_2ecss
from twoec.pipeline import (PipelineConfig, _structured_leaf_solver,
                            _violation_from_stuck, run_pipeline,
                            serialize_report)
from twoec import cover, graph, oracle, reduction
from twoec.reduction import (SOLUTION_TYPES, ReductionConfig,
                             _find_irrelevant_edges, classify_solution_type,
                             enumerate_min_typed_subgraph, find_min_patch,
                             reduce)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.workloads import sparse_chains, three_cut  # noqa: E402


def exact_leaf(sub):
    """Structured-solver stand-in: exact solve (leaves are small in tests)."""
    res = exact_min_2ecss(sub)
    assert res is not None and res.certified
    return set(res.witness.members)


def run_reduce(g, n0=12, leaf=exact_leaf, **kw):
    cfg = ReductionConfig(enumeration_budget=n0, **kw)
    return reduce(g, cfg, leaf)


def random_2ec_small(n, extra, seed):
    rng = random.Random(seed)
    g = cycle_graph(n)
    for _ in range(extra):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            g.add_edge(u, v)
    return g


# ---------------------------------------------------------------------------
# config validation

def test_config_rejects_bad_alpha_epsilon():
    with pytest.raises(ValueError):
        ReductionConfig(alpha=Fraction(6, 5))
    with pytest.raises(ValueError):
        ReductionConfig(epsilon=Fraction(1, 10))
    with pytest.raises(ValueError):
        ReductionConfig(epsilon=0)


def test_config_rejects_enumeration_budget_below_two():
    for budget in (-1, 0, 1):
        with pytest.raises(ValueError, match="enumeration_budget"):
            ReductionConfig(enumeration_budget=budget)
    assert ReductionConfig(enumeration_budget=2).enumeration_budget == 2


def test_config_thresholds():
    cfg = ReductionConfig()
    assert cfg.base_case_limit == 96
    assert cfg.small_side_limit == 44


# ---------------------------------------------------------------------------
# dispatch steps

def test_reduce_cycle_returns_whole_cycle():
    g = cycle_graph(7)
    sol, ctx = run_reduce(g)
    assert sol.members == frozenset(g.edge_ids())


def test_reduce_k4_is_optimal():
    sol, ctx = run_reduce(complete_graph(4))
    assert len(sol) == 4


def test_reduce_rejects_non_2ec():
    with pytest.raises(NotTwoEdgeConnected):
        run_reduce(MultiGraph(3, [(0, 1), (1, 2)]))


def test_one_cut_split():
    # two C4 blobs sharing vertex 0
    g = MultiGraph(7)
    for cyc in ([0, 1, 2, 3], [0, 4, 5, 6]):
        for a, b in zip(cyc, cyc[1:] + [cyc[0]]):
            g.add_edge(a, b)
    sol, ctx = run_reduce(g, n0=5)
    assert len(sol) == 8
    steps = [t["step"] for t in ctx["trace"]]
    assert "1-cut-split" in steps


def test_parallel_edge_dropped():
    g = cycle_graph(14)
    dup = g.add_edge(0, 1)
    sol, ctx = run_reduce(g, n0=6)
    assert len(sol) == 14
    assert not (sol.members >= {0, dup})


def test_contractible_subgraph_step_fires():
    # C5 with two interior vertices hanging inside a larger 2EC host
    g = MultiGraph(16)
    for i in range(5):
        g.add_edge(i, (i + 1) % 5)
    ring = list(range(5, 16))
    for a, b in zip(ring, ring[1:] + [ring[0]]):
        g.add_edge(a, b)
    g.add_edge(0, 5)
    g.add_edge(2, 8)
    g.add_edge(3, 11)
    sol, ctx = run_reduce(g, n0=8)
    assert verify_2ecss(g, sol.members)
    steps = [t["step"] for t in ctx["trace"]]
    assert "contract-subgraph" in steps


def test_two_cut_substitute_clears_certified():
    # two C7 blobs sharing a non-adjacent vertex pair => non-isolating 2-cut
    g = MultiGraph(12)
    for path in ([0, 2, 3, 4, 5, 1], [0, 6, 7, 8, 9, 1], [0, 10, 11, 1]):
        for a, b in zip(path, path[1:]):
            g.add_edge(a, b)
    sol, ctx = run_reduce(g, n0=7)
    assert verify_2ecss(g, sol.members)
    assert not ctx["certified"]
    assert any("2-cut" in n for n in ctx["notes"])


# ---------------------------------------------------------------------------
# solution-type classification

def cut_and_host(n=9):
    g = complete_graph(n)
    return g, (0, 1, 2)


def test_classify_single_cycle_is_A():
    g = cycle_graph(6)
    h = EdgeSubset(g, frozenset(g.edge_ids()))
    assert classify_solution_type(h, (0, 2, 4)) == "A"


def test_classify_two_cycles_is_B2():
    # cycle on {0..3} holding u,v; cycle on {4..7} holding w
    g = disjoint_cycles([4, 4])
    h = EdgeSubset(g, frozenset(g.edge_ids()))
    assert classify_solution_type(h, (0, 1, 4)) == "B2"


def test_classify_three_cycles_is_C3():
    g = disjoint_cycles([4, 4, 4])
    h = EdgeSubset(g, frozenset(g.edge_ids()))
    assert classify_solution_type(h, (0, 4, 8)) == "C3"


def test_classify_path_of_blocks_is_B1():
    # two C4 blocks joined by a bridge; u,v in the first, w in the last
    g = disjoint_cycles([4, 4])
    g.add_edge(0, 4)
    h = EdgeSubset(g, frozenset(g.edge_ids()))
    assert classify_solution_type(h, (1, 2, 5)) == "B1"


def test_classify_component_without_cut_vertex_errors():
    g = disjoint_cycles([4, 4])
    h = EdgeSubset(g, frozenset(g.edge_ids()))
    with pytest.raises(Untypeable):
        classify_solution_type(h, (0, 1, 2))


def test_classify_cycle_plus_pendant_path_is_C2():
    # path of blocks C4-C4 with one cut vertex in each end block, plus an
    # isolated cycle holding the third
    g = disjoint_cycles([4, 4, 4])
    g.add_edge(0, 4)
    h = EdgeSubset(g, frozenset(g.edge_ids()))
    assert classify_solution_type(h, (1, 5, 8)) == "C2"


# ---------------------------------------------------------------------------
# typed enumeration

def test_typed_enum_cycle_type_A():
    g = cycle_graph(9)
    val, sol = enumerate_min_typed_subgraph(g, (0, 3, 6), "A")
    assert val == 9 and sol == frozenset(g.edge_ids())


def test_typed_enum_c3_three_hanging_cycles():
    # three C4s, one per cut vertex; the cut vertices are 0, 4, 8
    g = disjoint_cycles([4, 4, 4])
    # joining edges so g is connected (they should not be selected for C3)
    g.add_edge(1, 5)
    g.add_edge(5, 9)
    g.add_edge(9, 1)
    val, sol = enumerate_min_typed_subgraph(g, (0, 4, 8), "C3")
    assert val == len(sol) == 12
    assert classify_solution_type(EdgeSubset(g, sol), (0, 4, 8)) == "C3"


def test_typed_enum_impossible_type_absent():
    g = cycle_graph(7)           # a cycle cannot split into 3 components
    assert enumerate_min_typed_subgraph(g, (0, 2, 4), "C3") == (None, None)


def typed_sample():
    """Seeded (graph, cut, edge subset, type) samples on random_2ec graphs,
    n 6-10, with a random 3-vertex set as the cut.  Dropping every edge at
    one or two cut vertices makes the multi-component types common."""
    rng = random.Random(2408)
    out = []
    for _ in range(400):
        n = rng.randint(6, 10)
        g = random_2ec(n, seed=rng.randrange(10 ** 6))
        cut = tuple(sorted(rng.sample(range(n), 3)))
        p = rng.choice((0.3, 0.5, 0.7, 0.9))
        cut_off = set(rng.sample(cut, rng.randint(0, 2)))
        members = frozenset(e for e, u, v in g.edges
                            if rng.random() < p and not ({u, v} & cut_off))
        try:
            t = classify_solution_type(EdgeSubset(g, members), cut)
        except Untypeable:
            t = "Untypeable"
        out.append((g, cut, members, t))
    return out


def digest(obj):
    return hashlib.sha256(json.dumps(obj).encode()).hexdigest()


def test_classification_golden():
    # recorded before the typed layer moved onto graph.low_link
    sample = typed_sample()
    types = [t for *_, t in sample]
    assert set(types) == set(SOLUTION_TYPES) | {"Untypeable"}
    assert digest(types) == (
        "2776f1ed99b8f0d7a1bd246d40ad0885e409e6c22887641b4db2c2de1b3fdcfc")


def test_typed_enumeration_golden(monkeypatch):
    # every type on the first 20 samples with n <= 8.  The solution is the
    # first minimum set the search finds and the node budget runs out on
    # some searches, so the record pins the branching order as well.
    # Re-recorded when the searches came to keep only the first minimum
    # set, with the budget lowered from 20000 to 1000 so that some still run
    # out of it
    monkeypatch.setattr(reduction, "TYPED_NODE_BUDGET", 1000)
    results = []
    small = [s for s in typed_sample() if s[0].n <= 8][:20]
    for g, cut, _, _ in small:
        for t in SOLUTION_TYPES:
            try:
                val, sol = enumerate_min_typed_subgraph(g, cut, t)
            except BudgetExceeded:
                results.append("budget")
                continue
            results.append([val, None if sol is None else sorted(sol)])
    found = {t for t, r in zip(SOLUTION_TYPES * len(small), results)
             if r != "budget" and r[0] is not None}
    assert found == set(SOLUTION_TYPES)
    assert "budget" in results
    assert digest(results) == (
        "8db577f90a86190cc00438ef7f560929cf0cf6ed6378952cd25012ce4a0baa0f")


def test_degree_search_node_counts_golden(monkeypatch):
    # the node count of every typed search next to its outcome, so a change
    # to the cost of a search node cannot move a node: every type on the
    # first sample with n <= 10 and the first 12 sparse ones.  Re-recorded
    # with test_typed_enumeration_golden, with the budget lowered from 5000
    # to 1000 so that three searches still run out of it; the
    # triangle-free cover half is test_cover.py's own golden
    monkeypatch.setattr(reduction, "TYPED_NODE_BUDGET", 1000)
    searches = []

    class Recorded(DegreeSearch):
        def solve(self):
            searches.append(self)
            return super().solve()

    monkeypatch.setattr(reduction, "DegreeSearch", Recorded)
    small = [s for s in typed_sample() if s[0].n <= 10]
    sparse = [s for s in small if s[0].m <= 2 * s[0].n][:12]
    results = []
    for g, cut, _, _ in small[:1] + sparse:
        for t in SOLUTION_TYPES:
            try:
                val, sol = enumerate_min_typed_subgraph(g, cut, t)
            except BudgetExceeded:
                results.append(["budget", searches[-1].nodes])
                continue
            results.append([val, None if sol is None else sorted(sol),
                            searches[-1].nodes])
    assert ["budget", 1001] in results
    assert digest(results) == (
        "eb384d0f1e1f2b56d61f09c2ac2139018e36ca0f22723b1a455cef2af67caf17")


def typed_brute_force(g, cut):
    """{key: (size, sets)}: every minimum edge set of each type, keyed by
    the type, and of C2 for each cut pair, keyed by ("C2", pair), from a
    scan of every edge subset in which the vertices outside the cut have
    degree >= 2, classified by classify_solution_type."""
    edges = sorted(g.edges)
    masks = np.arange(2 ** len(edges))
    ends = np.zeros((len(edges), g.n), dtype=int)
    for i, (_, u, v) in enumerate(edges):
        ends[i, u] += 1
        ends[i, v] += 1
    deg = ((masks[:, None] >> np.arange(len(edges))) & 1) @ ends
    outside = [v for v in range(g.n) if v not in cut]
    typed = {}
    for mask in masks[(deg[:, outside] >= 2).all(axis=1)]:
        members = frozenset(e for i, (e, _, _) in enumerate(edges)
                            if mask >> i & 1)
        try:
            t = classify_solution_type(EdgeSubset(g, members), cut)
        except Untypeable:
            continue
        keys = [t]
        if t == "C2":
            comp_of = member_components(g, members)[1]
            keys.append(("C2", next(p for p in itertools.combinations(cut, 2)
                                    if comp_of[p[0]] == comp_of[p[1]])))
        for key in keys:
            typed.setdefault(key, []).append(members)
    out = {}
    for key, sets in typed.items():
        size = min(map(len, sets))
        out[key] = (size, {s for s in sets if len(s) == size})
    return out


def test_typed_enumeration_matches_brute_force():
    # 150 multigraphs with n 5-8 and m <= 12: a Hamiltonian cycle plus
    # random edges, parallels allowed, with a random cut triple.  For each
    # type, and for C2 restricted to each cut pair: the minimum and a
    # minimum set; capped one below the minimum nothing, capped at or one
    # above it the same set
    rng = random.Random(1717)
    for _ in range(150):
        n = rng.randint(5, 8)
        m = rng.randint(n, 12)
        order = rng.sample(range(n), n)
        g = MultiGraph(n, list(zip(order, order[1:] + order[:1])))
        while g.m < m:
            g.add_edge(*rng.sample(range(n), 2))
        cut = tuple(sorted(rng.sample(range(n), 3)))
        want = typed_brute_force(g, cut)
        for t, pair in ([(t, None) for t in SOLUTION_TYPES] +
                        [("C2", p) for p in itertools.combinations(cut, 2)]):
            size, sets = want.get(t if pair is None else (t, pair),
                                  (None, set()))
            val, found = enumerate_min_typed_subgraph(g, cut, t, pair=pair)
            assert val == size and (found is None) == (size is None)
            if size is None:
                continue
            assert found in sets
            for cap in (size - 1, size, size + 1):
                assert enumerate_min_typed_subgraph(
                    g, cut, t, cap=cap, pair=pair) == (
                        (size, found) if cap >= size else (None, None))


def test_first_minimum_c3_set_has_a_naming():
    # _c3_naming's docstring proves that G1 is connected at the 3-cut step,
    # so the three components of any C3 set leave one of them adjacent to
    # the other two: on random connected graphs with a random cut triple,
    # the first minimum C3 set always has a naming
    rng = random.Random(2110)
    named = 0
    for _ in range(300):
        n = rng.randint(5, 10)
        g = MultiGraph(n, [(rng.randrange(v), v) for v in range(1, n)])
        for _ in range(rng.randint(0, 2 * n)):
            g.add_edge(*rng.sample(range(n), 2))
        cut = sorted(rng.sample(range(n), 3))
        val, sol = enumerate_min_typed_subgraph(g, cut, "C3")
        if sol is None:
            continue
        u, v, w = reduction._c3_naming(g, cut, sol)
        assert sorted((u, v, w)) == cut
        named += 1
    assert named >= 100


# ---------------------------------------------------------------------------
# patches

def test_find_min_patch_rejoins_split_cycle():
    g = cycle_graph(8)
    base = set(g.edge_ids()) - {0, 4}
    assert find_min_patch(g, base, 2) == {0, 4}


def test_find_min_patch_zero_when_feasible():
    g = cycle_graph(6)
    assert find_min_patch(g, set(g.edge_ids()), 2) == set()


def test_redundant_edge_drops_traced_one_entry_each_in_id_order():
    g = cycle_graph(14)
    extra = [g.add_edge(3, 4), g.add_edge(0, 1), g.add_edge(4, 3)]
    g.add_edge(5, 5)                   # a self-loop is never stored
    sol, ctx = run_reduce(g, n0=6)
    assert verify_2ecss(g, sol.members)
    drops = [t["edge"] for t in ctx["trace"]
             if t["step"] == "drop-redundant-edge"]
    assert drops == sorted(extra)


def test_heavy_parallel_cycle_solves():
    # C_20 with every edge 20 times: 380 redundant edges, far more than the
    # recursion depth guard, so they must go in one reduction level
    g = MultiGraph(20)
    for _ in range(20):
        for i in range(20):
            g.add_edge(i, (i + 1) % 20)
    report = run_pipeline(g)
    assert verify_2ecss(g, report["solution"]["edges"])
    assert report["solution"]["size"] == 20


def test_exact_budget_exhaustion_uses_the_incumbent(monkeypatch):
    monkeypatch.setattr(reduction, "ORACLE_NODE_BUDGET", 20)
    g = random_2ec(10, seed=3)
    report = run_pipeline(g)
    assert verify_2ecss(g, report["solution"]["edges"])
    assert not report["certified"]
    assert any("exact solve" in note for note in report["notes"])


def test_exact_budget_exhaustion_on_two_vertices(monkeypatch):
    # dropping redundant edges would leave a bridge, so the pair is kept
    monkeypatch.setattr(reduction, "ORACLE_NODE_BUDGET", 1)
    g = MultiGraph(2, [(0, 1), (1, 1), (1, 0), (0, 1)])
    report = run_pipeline(g)
    assert report["solution"]["edges"] == [0, 2]
    assert not report["certified"]


@pytest.mark.parametrize("budget", (5, 20, 1000))
def test_exact_budget_exhaustion_never_crashes(monkeypatch, budget):
    # with budget 5 the exact solve finds no solution at all, so small
    # graphs, 2-vertex ones included, go down the dispatch instead
    monkeypatch.setattr(reduction, "ORACLE_NODE_BUDGET", budget)
    fired = 0
    for n in range(6, 21):
        for seed in range(15):
            g = random_2ec(n, seed=seed)
            report = run_pipeline(g, PipelineConfig(oracle_mode="off"))
            assert verify_2ecss(g, report["solution"]["edges"]), (n, seed)
            if any("exact solve" in note for note in report["notes"]):
                fired += 1
                assert not report["certified"], (n, seed)
    assert fired


def naive_irrelevant_edges(g):
    """Every edge whose endpoint pair is a 2-vertex cut, by pair, then id."""
    out = []
    for u, v in sorted({(min(a, b), max(a, b)) for _, a, b in g.edges
                        if a != b}):
        h = nx.MultiGraph()
        h.add_nodes_from(x for x in range(g.n) if x not in (u, v))
        h.add_edges_from((a, b) for _, a, b in g.edges
                         if {a, b}.isdisjoint((u, v)))
        if nx.number_connected_components(h) >= 2:
            out += sorted(e for e, a, b in g.edges if {a, b} == {u, v})
    return out


def test_irrelevant_edge_matches_naive_scan():
    graphs = [random_2ec(n, seed=seed) for n in (6, 9, 12) for seed in range(10)]
    graphs += [random_2ec_small(n, n // 3, seed)
               for n in (5, 8, 11) for seed in range(10)]
    for seed in range(60):
        rng = random.Random(seed)
        n = rng.randint(1, 10)
        g = MultiGraph(n)
        for _ in range(rng.randint(0, 3 * n)):
            g.add_edge(rng.randrange(n), rng.randrange(n))
        graphs.append(g)
    # 2-connected sparse inputs, where only vertices of 3 or more neighbors
    # get a pass: chorded cycles, theta graphs, ladders, prisms and wheels
    for n in (9, 12, 15):
        for gap in (2, 3, 4):
            g = cycle_graph(n)
            for i in range(0, n, gap):
                g.add_edge(i, (i + gap) % n)
            graphs.append(g)
    for lengths in ((1, 2, 3), (2, 2, 2), (2, 3, 5), (1, 4, 4, 6)):
        g = MultiGraph(2 + sum(k - 1 for k in lengths))
        nxt = 2
        for k in lengths:
            path = [0] + list(range(nxt, nxt + k - 1)) + [1]
            nxt += k - 1
            for a, b in zip(path, path[1:]):
                g.add_edge(a, b)
        graphs.append(g)
    for k in (3, 4, 6):
        graphs += [from_networkx(nx.ladder_graph(k)),
                   from_networkx(nx.circular_ladder_graph(k)),
                   from_networkx(nx.wheel_graph(k + 2))]
    found = [_find_irrelevant_edges(g) for g in graphs]
    assert found == [naive_irrelevant_edges(g) for g in graphs]
    assert [] in found and any(len(f) >= 2 for f in found)


def test_irrelevant_scan_skips_thin_vertices(monkeypatch):
    # on a graph without a cut vertex, only a vertex of 3 or more neighbors
    # with such a higher neighbor is scanned
    calls = []
    real = reduction.splitting_vertices

    def counting(adj, removed):
        calls.append(sorted(removed))
        return real(adj, removed)

    monkeypatch.setattr(reduction, "splitting_vertices", counting)
    assert _find_irrelevant_edges(cycle_graph(30)) == []
    assert calls == []
    g = cycle_graph(15)
    chords = [g.add_edge(i, (i + 3) % 15) for i in range(0, 15, 3)]
    assert sorted(_find_irrelevant_edges(g)) == chords
    assert calls == [[0], [3], [6], [9]]


@st.composite
def two_connected_graphs(draw):
    """Simple 2-vertex-connected graphs on at most 12 vertices: a cycle
    grown by open ears (chords or paths between two distinct vertices),
    with the vertex labels permuted."""
    n = draw(st.integers(3, 8))
    pairs = {frozenset((i, (i + 1) % n)) for i in range(n)}
    for _ in range(draw(st.integers(0, 6))):
        a, b = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2,
                             unique=True))
        inner = draw(st.integers(0, min(2, 12 - n)))
        path = [a] + list(range(n, n + inner)) + [b]
        n += inner
        pairs |= {frozenset(p) for p in zip(path, path[1:])}
    perm = draw(st.permutations(range(n)))
    return MultiGraph(n, sorted(tuple(sorted(perm[x] for x in p))
                                for p in pairs))


@settings(max_examples=60, deadline=None)
@given(two_connected_graphs())
def test_irrelevant_edges_match_naive_on_2_connected_graphs(g):
    assert nx.is_biconnected(nx.Graph([(u, v) for _, u, v in g.edges]))
    assert _find_irrelevant_edges(g) == naive_irrelevant_edges(g)


def test_irrelevant_chords_cost_one_contractibility_scan(monkeypatch):
    # C_15 with the chords (0, 3), (3, 6), ..., (12, 0): each chord's pair is
    # a 2-vertex cut, and no cycle of at most 7 vertices is contractible, so
    # all five chords go in one level after a single scan
    g = cycle_graph(15)
    chords = [g.add_edge(i, (i + 3) % 15) for i in range(0, 15, 3)]
    scanned = []
    real = reduction.find_contractible_certificate

    def counting(h, *args, **kwargs):
        scanned.append(h.m)
        return real(h, *args, **kwargs)

    monkeypatch.setattr(reduction, "find_contractible_certificate", counting)
    sol, ctx = run_reduce(g)
    assert verify_2ecss(g, sol.members)
    assert sorted(t["edge"] for t in ctx["trace"]
                  if t["step"] == "drop-irrelevant-edge") == chords
    assert [m for m in scanned if m > 15] == [15 + len(chords)]


def naive_large_three_cut(g):
    """The lexicographically least 3-subset whose removal leaves components
    that some grouping splits into two sides of >= 7 vertices each, or
    None."""
    h = nx.MultiGraph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from((a, b) for _, a, b in g.edges)
    for cut in itertools.combinations(range(g.n), 3):
        rest = h.subgraph(set(range(g.n)) - set(cut))
        sizes = [len(c) for c in nx.connected_components(rest)]
        if any(7 <= sum(pick) <= sum(sizes) - 7
               for r in range(1, len(sizes))
               for pick in itertools.combinations(sizes, r)):
            return cut
    return None


def glued_sides(a, b):
    """a and b sharing their vertices 0, 1, 2, b's other vertices after a's
    (a pair of shared vertices keeps the edges of both)."""
    shift = a.n - 3
    return MultiGraph(a.n + b.n - 3,
                      [(u, v) for _, u, v in a.edges]
                      + [(x if x < 3 else x + shift, y if y < 3 else y + shift)
                         for _, x, y in b.edges])


def test_large_three_cut_matches_naive_scan():
    # dense random graphs (n <= 16 takes the early return), chorded cycles
    # with many 3-cuts, and glued cliques with sides of 7 and of 5 and 9
    graphs = [random_2ec(n, seed=n) for n in range(12, 21)]
    graphs += [random_2ec_small(n, n // 4, seed=n) for n in range(14, 21)]
    graphs += [glued_cliques(10, 10, 3), glued_cliques(8, 12, 3),
               glued_cliques(10, 12, 3)]
    # where the core rules every cut out, and dense random sides of 10 and
    # 10-11 vertices sharing vertices 0, 1, 2: a real cut it must not hide
    graphs += [random_2ec(n, seed=n) for n in range(24, 27)]
    graphs += [glued_sides(random_2ec(10, p=0.85, seed=s),
                           random_2ec(10 + s % 2, p=0.85, seed=s + 50))
               for s in range(2)]
    found = skipped = 0
    for g in graphs:
        if g.n >= 17 and g.n - len(graph.three_cut_core(g)) < 7:
            skipped += 1
        split = reduction._find_large_three_cut(g)
        cut = naive_large_three_cut(g)
        if cut is None:
            assert split is None
            continue
        found += 1
        got, v1, v2 = split
        assert got == cut
        assert v1 | v2 == set(range(g.n)) - set(cut) and not v1 & v2
        assert 7 <= len(v1) <= len(v2)
        # each side is a union of components of G - cut
        assert not any(a in v1 and b in v2 or a in v2 and b in v1
                       for _, a, b in g.edges)
    assert 3 <= found < len(graphs)
    assert skipped >= 1


def region_scans(g):
    """`graph.cut_region` of g, after checking that the irrelevant-edge, 2-cut
    and (with no 2-cut but isolating ones) large-3-cut scans limited to it
    find what the full scans find; None when g has a cut vertex."""
    if graph.find_vertex_cut(g, 1) is not None:
        return None
    core = graph.three_cut_core(g)
    region = graph.cut_region(g, core)
    cuts = list(graph.iterate_vertex_cuts(g, 2))
    assert list(graph.iterate_vertex_cuts(g, 2, region)) == cuts
    assert _find_irrelevant_edges(g, region) == _find_irrelevant_edges(g)
    if all(len(comps) == 2 and min(map(len, comps)) == 1
           for comps in (graph.connected_components(g, cut) for cut in cuts)):
        assert reduction._find_large_three_cut(g, core, region) == \
            reduction._find_large_three_cut(g)
    return region


def relabeled(g, seed):
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    return MultiGraph(g.n, [(perm[u], perm[v]) for _, u, v in g.edges])


def test_cut_region_scans_match_full_scans():
    # dense random graphs with 0-3 edges subdivided, and glued cliques
    # sharing 2 or 3 vertices under seeded relabelings
    graphs = []
    for seed in range(12):
        rng = random.Random(seed)
        dense = random_2ec(rng.randint(12, 20), p=0.8, seed=seed)
        pairs = [(u, v) for _, u, v in dense.edges]
        graphs.append(subdivided(dense, rng.sample(pairs, seed % 4)))
    for a, b, shared in ((10, 10, 3), (8, 12, 3), (10, 12, 3), (9, 9, 2)):
        graphs += [relabeled(glued_cliques(a, b, shared), s) for s in range(2)]
    regions = [region_scans(g) for g in graphs]
    assert None not in regions
    assert set() in regions
    assert any(0 < len(r) < g.n for g, r in zip(graphs, regions))
    # a large 3-cut that the region scan still finds
    assert any(reduction._find_large_three_cut(
        g, graph.three_cut_core(g), r) is not None and len(r) < g.n
        for g, r in zip(graphs, regions))


@settings(max_examples=60, deadline=None)
@given(two_connected_graphs())
def test_cut_region_scans_match_full_scans_on_2_connected_graphs(g):
    assert region_scans(g) is not None


@pytest.mark.parametrize("mode", ("off", "auto", "force"))
def test_small_input_is_solved_exactly_once(monkeypatch, mode):
    # the base case runs on reduction.min_2ecss, never on the reference, and
    # the report's oracle block reuses its depth-0 solve
    calls = []
    real = oracle.exact_min_2ecss

    def counting(g, budget):
        calls.append(g.n)
        return real(g, budget)

    g = random_2ec(10, seed=4)
    cfg = PipelineConfig(oracle_mode=mode)
    res = real(g, reduction.ORACLE_NODE_BUDGET)
    monkeypatch.setattr(oracle, "exact_min_2ecss", counting)
    report = run_pipeline(g, cfg)
    assert calls == []
    if mode == "off":
        assert "oracle" not in report
    else:
        assert report["oracle"]["opt"] == res.value


# ---------------------------------------------------------------------------
# large 3-cut end-to-end

def test_glued_cliques_reduces_feasibly():
    # |V1| = 7 and |V(G1)| = 10 are within both limits: a typed step
    g = glued_cliques(10, 10, 3)
    sol, ctx = run_reduce(g, n0=12)
    assert verify_2ecss(g, sol.members)
    assert three_cut_steps(ctx) == ["3-cut-C2-iii"]
    assert SKIPPED_NOTE not in ctx["notes"]


def test_both_large_branch_on_big_glued_cliques(monkeypatch):
    monkeypatch.setattr(reduction, "TYPED_ENUM_MAX", 10)
    g = glued_cliques(12, 12, 3)
    cfg = ReductionConfig(enumeration_budget=12)
    sol, ctx = reduce(g, cfg, exact_leaf)
    assert verify_2ecss(g, sol.members)
    assert any(t["step"] == "3-cut-both-large" for t in ctx["trace"])


SKIPPED_NOTE = "typed enumeration skipped: |V(G1)|=10 over cap"


def test_large_side_takes_the_fallback_without_a_typed_search(monkeypatch):
    # |V1| = 7 on glued_cliques(10, 10, 3): over a small-side limit of 5
    def no_search(*args, **kw):
        raise AssertionError("typed search on a large small side")

    monkeypatch.setattr(reduction, "enumerate_min_typed_subgraph", no_search)
    g = glued_cliques(10, 10, 3)
    cfg = ReductionConfig(enumeration_budget=12)
    cfg.small_side_limit = 5
    sol, ctx = reduce(g, cfg, exact_leaf)
    assert three_cut_steps(ctx) == ["3-cut-both-large"]
    assert SKIPPED_NOTE not in ctx["notes"]
    assert verify_2ecss(g, sol.members)


def test_small_side_over_the_typed_cap_is_noted(monkeypatch):
    # G1 = G[V1 + S] has 10 vertices, one over the cap
    monkeypatch.setattr(reduction, "TYPED_ENUM_MAX", 9)
    g = glued_cliques(10, 10, 3)
    sol, ctx = run_reduce(g)
    assert three_cut_steps(ctx) == ["3-cut-both-large"]
    assert SKIPPED_NOTE in ctx["notes"]
    assert verify_2ecss(g, sol.members)


def _glued_at_a_vertex():
    """random_2ec(7), C_5 and random_2ec(8) sharing one vertex, relabelled
    so that the cut vertex is not vertex 0."""
    parts = [random_2ec(7, seed=1), cycle_graph(5), random_2ec(8, seed=2)]
    g = MultiGraph(sum(p.n for p in parts) - 2)
    base = 0
    for p in parts:
        for _, u, v in p.edges:
            g.add_edge(*(base + x if x else 0 for x in (u, v)))
        base += p.n - 1
    return relabeled(g, 5)


def _non_isolating_two_cut():
    """Three paths between vertices 0 and 1, with 5, 5 and 4 inner
    vertices."""
    g = MultiGraph(16)
    for path in ([0, 2, 3, 4, 5, 6, 1], [0, 7, 8, 9, 10, 11, 1],
                 [0, 12, 13, 14, 15, 1]):
        for a, b in zip(path, path[1:]):
            g.add_edge(a, b)
    return g


def _wheel(n):
    """W_n: hub 0 joined to every vertex of the cycle 1 .. n - 1."""
    rim = range(1, n)
    return MultiGraph(n, [(0, v) for v in rim] + [(v, v % (n - 1) + 1)
                                                  for v in rim])


def test_traced_reports_golden(monkeypatch):
    # one traced report per step kind of the reduction; recorded before the
    # 1-cut, 2-cut and both-large 3-cut branches shared one split step
    repeated = cycle_graph(14)
    repeated.add_edge(0, 1)
    repeated.add_edge(5, 6)
    chains = sparse_chains(301)
    cases = [
        ("1-cut-split", _glued_at_a_vertex()),
        ("drop-redundant-edge", repeated),
        ("drop-irrelevant-edge", chains[40][1]),    # chorded C_20, gap 2
        ("contract-subgraph", chains[43][1]),       # chorded C_24, gap 4
        ("2-cut-split", _non_isolating_two_cut()),
        ("3-cut-C2-iii", _wheel(17)),
        ("3-cut-both-large", glued_cliques(10, 10, 3)),
        ("structured-leaf", random_2ec(16, seed=3)),
    ]
    reports = []
    for kind, g in cases:
        with monkeypatch.context() as m:
            if kind == "3-cut-both-large":
                m.setattr(reduction, "TYPED_ENUM_MAX", 9)
            report = run_pipeline(g, PipelineConfig(oracle_mode="off",
                                                    trace=True))
        assert kind in {t["step"] for t in report["trace"]}, kind
        reports.append(serialize_report(report))
    assert digest(reports) == (
        "e3fe960f3b0aa27061f84bf857fb0ab07882c8fdd4c9bd1e6f43bf1a2abe5e51")


def test_wheels_solve_to_a_hamiltonian_cycle():
    # W_n, a hub joined to every vertex of an (n - 1)-cycle, is Hamiltonian,
    # so OPT = n.  Its 3-cuts take the typed C2(iii) step, which must find
    # the candidate that meets the accounting bound for every wheel to come
    # out at exactly n edges
    rng = random.Random(1340)
    for n in range(14, 41, 3):
        perm = rng.sample(range(n), n)
        g = MultiGraph(n, [(perm[u], perm[v])
                           for u, v in nx.wheel_graph(n).edges()])
        report = run_pipeline(g, PipelineConfig(oracle_mode="off"))
        assert report["solution"]["size"] == n, n


# every typed branch on one glued-random graph (n = 17), with the typed
# search reporting only the type under test; the solutions were recorded
# before the typed branches shared one far-side step
FORCED_TYPE_SOLUTIONS = {
    "A": ("3-cut-contract-A",
          [2, 3, 23, 25, 29, 32, 33, 35, 39, 40, 44, 46, 48, 52, 56, 62, 63,
           66]),
    "B1": ("3-cut-B1",
           [1, 3, 12, 22, 23, 25, 31, 32, 35, 39, 40, 41, 44, 45, 48, 56, 62,
            63, 66]),
    "B2": ("3-cut-B2",
           [1, 3, 12, 15, 22, 23, 25, 31, 32, 35, 39, 40, 44, 46, 56, 58, 62,
            63, 66]),
    "C1": ("3-cut-C1",
           [1, 3, 12, 22, 23, 25, 31, 32, 35, 39, 40, 44, 53, 56, 58, 62, 63,
            66]),
    "C3": ("3-cut-C3",
           [3, 7, 9, 12, 15, 19, 24, 29, 31, 32, 39, 40, 56, 57, 61, 62, 66,
            69]),
}


@pytest.mark.parametrize("forced", sorted(FORCED_TYPE_SOLUTIONS))
def test_every_typed_branch_solves_its_cut(monkeypatch, forced):
    search = reduction.enumerate_min_typed_subgraph

    def only_forced(g1, cut, t, cap=None, pair=None):
        if t != forced:
            return None, None
        if t in ("C1", "C3"):
            # uncapped, these miss their budget on dense sides
            cap = reduction._type_floor(g1.n, t)
        return search(g1, cut, t, cap=cap, pair=pair)

    monkeypatch.setattr(reduction, "enumerate_min_typed_subgraph", only_forced)
    label, g = three_cut(302)[3]
    assert label.startswith("glued-random 10-10-3") and g.n == 17
    sol, ctx = run_reduce(g)
    kind, edges = FORCED_TYPE_SOLUTIONS[forced]
    assert [t["step"] for t in ctx["trace"] if t["step"].startswith("3-cut")] \
        == [kind]
    assert verify_2ecss(g, sol.members)
    assert sorted(sol.members) == edges


def three_cut_steps(ctx):
    return [t["step"] for t in ctx["trace"] if t["step"].startswith("3-cut")]


def test_far_side_step_raises_its_first_accounting_miss(monkeypatch):
    # with the C2(iii) bound lowered to -5 no candidate meets it, so the
    # first miss is raised and the cut falls back to both sides contracted
    gadget, limit, _ = reduction._FAR_SIDE["C2-iii"]
    monkeypatch.setitem(reduction._FAR_SIDE, "C2-iii", (gadget, limit, -5))
    _, g = three_cut(302)[3]
    sol, ctx = run_reduce(g)
    assert three_cut_steps(ctx) == ["3-cut-both-large"]
    assert ("typed 3-cut branch abandoned (C2(iii) accounting delta -1 > "
            "-5); using both-sides-contracted fallback") in ctx["notes"]
    assert verify_2ecss(g, sol.members)
    assert len(sol) == 19


def test_far_side_step_passes_over_a_candidate_without_a_patch(monkeypatch):
    # with patch limit 0, the C2(iii) candidates that need a patch edge are
    # passed over and the first that needs none is joined
    gadget, _, bound = reduction._FAR_SIDE["C2-iii"]
    monkeypatch.setitem(reduction._FAR_SIDE, "C2-iii", (gadget, 0, bound))
    missed = []

    def recording(g, base, limit):
        try:
            return find_min_patch(g, base, limit)
        except PatchNotFound:
            missed.append(limit)
            raise

    monkeypatch.setattr(reduction, "find_min_patch", recording)
    _, g = three_cut(302)[3]
    sol, ctx = run_reduce(g)
    assert 0 in missed
    assert [t for t in ctx["trace"] if t["step"].startswith("3-cut")] == [
        {"step": "3-cut-C2-iii", "cut": [11, 12, 15], "patch": [],
         "delta": -2}]
    assert verify_2ecss(g, sol.members)


def test_far_side_step_raises_when_no_candidate_admits_a_patch(monkeypatch):
    # B1 forced, with patch limit 0: its one candidate needs a patch edge
    search = reduction.enumerate_min_typed_subgraph
    monkeypatch.setattr(reduction, "enumerate_min_typed_subgraph",
                        lambda g1, cut, t, cap=None, pair=None:
                        search(g1, cut, t, cap, pair) if t == "B1"
                        else (None, None))
    monkeypatch.setitem(reduction._FAR_SIDE, "B1", (None, 0, 0))
    _, g = three_cut(302)[3]
    sol, ctx = run_reduce(g)
    assert three_cut_steps(ctx) == ["3-cut-both-large"]
    assert ("typed 3-cut branch abandoned (no B1 candidate admits a patch "
            "of size <= 0); using both-sides-contracted fallback") \
        in ctx["notes"]
    assert verify_2ecss(g, sol.members)


# ---------------------------------------------------------------------------
# the structured leaf's violation contract

def test_leaf_violation_witness_is_contracted():
    g = petersen()
    calls = []

    def leaf(sub):
        calls.append(sub.n)
        if len(calls) == 1:
            raise StructuredViolation("outer cycle is 2EC",
                                      edges=range(5), justification="test")
        return exact_leaf(sub)

    sol, ctx = run_reduce(g, n0=5, leaf=leaf)
    steps = [t for t in ctx["trace"]
             if t["step"] == "contract-violation-witness"]
    assert steps == [{"step": "contract-violation-witness",
                      "vertices": [0, 1, 2, 3, 4], "edges": [0, 1, 2, 3, 4],
                      "justification": "test"}]
    assert "leaf reported a non-structured witness: outer cycle is 2EC" \
        in ctx["notes"]
    assert ctx["certified"] is False
    assert verify_2ecss(g, sol.members)


def test_unlabelled_leaf_witness_is_certified_at_the_configured_alpha():
    # Petersen's outer 5-cycle is contractible at alpha = 2 but not at 5/4
    g = petersen()
    calls = []

    def leaf(sub):
        calls.append(sub.n)
        if len(calls) == 1:
            raise StructuredViolation("outer cycle is 2EC", edges=range(5))
        return exact_leaf(sub)

    sol, ctx = run_reduce(g, n0=5, leaf=leaf, alpha=Fraction(2))
    (step,) = [t for t in ctx["trace"]
               if t["step"] == "contract-violation-witness"]
    label = graph.certify_contractible(g, range(5), Fraction(2))
    assert step["justification"] == label
    assert label is not None
    assert graph.certify_contractible(g, range(5), Fraction(5, 4)) is None
    assert verify_2ecss(g, sol.members)


def test_leaf_violation_without_witness_is_raised():
    def leaf(sub):
        raise StructuredViolation("no witness")

    with pytest.raises(StructuredViolation, match="no witness"):
        run_reduce(petersen(), n0=5, leaf=leaf)


def test_stuck_gives_the_largest_block_of_a_bridged_component():
    # a C4 and a C5 joined by a bridge, beside a bridgeless C6
    g = disjoint_cycles([4, 5, 6])
    bridge = g.add_edge(0, 4)
    h = TwoEdgeCover(g, frozenset(g.edge_ids()))
    sv = _violation_from_stuck(h, Stuck({}))
    assert sv.edges == frozenset(range(4, 9))      # the C5, not the C6
    assert is_2ec_edge_set(g, sv.edges)

    bridgeless = TwoEdgeCover(g, frozenset(g.edge_ids()) - {bridge})
    with pytest.raises(Stuck):
        _violation_from_stuck(bridgeless, Stuck({}))


# ---------------------------------------------------------------------------
# equivalence with the oracle under the brute-force guard

@settings(max_examples=50, deadline=None)
@given(st.integers(4, 10), st.integers(0, 8), st.integers(0, 10 ** 6))
def test_reduce_matches_oracle_small(n, extra, seed):
    g = random_2ec_small(n, extra, seed)
    sol, ctx = run_reduce(g, n0=12)
    res = exact_min_2ecss(g)
    assert len(sol) == res.value
    assert verify_2ecss(g, sol.members)


@settings(max_examples=30, deadline=None)
@given(st.integers(8, 13), st.integers(2, 10), st.integers(0, 10 ** 6))
def test_reduce_feasible_with_tiny_budget(n, extra, seed):
    # n0=5 forces the dispatch machinery (not brute force) to do the work
    g = random_2ec_small(n, extra, seed)
    sol, ctx = run_reduce(g, n0=5)
    assert verify_2ecss(g, sol.members)


@st.composite
def small_2ec_multigraphs(draw):
    """2EC multigraphs on at most 7 vertices: a cycle (a parallel pair on
    2 vertices) grown by up to 3 ears of at most 3 edges whose ends may
    coincide, so repeated edges and self-loops come up."""
    n = draw(st.integers(2, 4))
    edges = [(i, (i + 1) % n) for i in range(n)]
    for _ in range(draw(st.integers(0, 3))):
        a, b = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        inner = draw(st.integers(0, min(2, 7 - n)))
        path = [a] + list(range(n, n + inner)) + [b]
        n += inner
        edges += zip(path, path[1:])
    return MultiGraph(n, edges)


@settings(max_examples=150, deadline=None)
@given(small_2ec_multigraphs())
def test_pipeline_matches_naive_optimum(g):
    opt = naive_min_2ecss(g)
    assert run_pipeline(g)["solution"]["size"] == opt
    # with n0 = 2 the dispatch and the structured leaves do the work
    rep = run_pipeline(g, PipelineConfig(oracle_mode="off",
                                         enumeration_budget=2))
    edges = rep["solution"]["edges"]
    assert naive_is_2ecss(g, set(edges))
    assert len(edges) >= opt


def test_canonicalize_stall_gives_a_contraction_witness():
    # canonicalize stalls on this leaf with two PendantBlockUnder6
    # violations; the first block, the triangle 0-5-6, is a 2EC witness
    g = MultiGraph(8, [(0, 5), (0, 6), (1, 2), (1, 3), (2, 3), (2, 4), (2, 7),
                       (3, 5), (3, 7), (4, 5), (5, 6)])
    with pytest.raises(NotCanonical) as stall:
        canonicalize(g, min_triangle_free_cover(g))
    assert [v.kind for v in stall.value.violations] == \
        ["PendantBlockUnder6"] * 2
    with pytest.raises(StructuredViolation) as exc:
        _structured_leaf_solver([])(g)
    assert exc.value.edges == {0, 1, 10}
    assert is_2ec_edge_set(g, exc.value.edges)
