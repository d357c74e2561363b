"""Recursive reduction: dispatch steps, typed enumeration, 3-cut handling,
and end-to-end feasibility/optimality against the oracle."""

import hashlib
import json
import random
from fractions import Fraction

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from conftest import complete_graph, cycle_graph, disjoint_cycles
from twoec.errors import BudgetExceeded, NotTwoEdgeConnected, Untypeable
from twoec.generate import glued_cliques, random_2ec
from twoec.graph import EdgeSubset, MultiGraph
from twoec.oracle import exact_min_2ecss, verify_2ecss
from twoec.pipeline import PipelineConfig, run_pipeline
from twoec import oracle
from twoec.reduction import (SOLUTION_TYPES, ReductionConfig,
                             _find_irrelevant_edge, classify_solution_type,
                             enumerate_min_typed_subgraph, find_min_patch,
                             reduce)


def exact_leaf(sub):
    """Structured-solver stand-in: exact solve (leaves are small in tests)."""
    res = exact_min_2ecss(sub)
    assert res is not None and res.certified
    return set(res.witness.members)


def run_reduce(g, n0=12, **kw):
    cfg = ReductionConfig(enumeration_budget=n0, **kw)
    return reduce(g, cfg, exact_leaf)


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
    val, sols = enumerate_min_typed_subgraph(g, (0, 3, 6), "A")
    assert val == 9 and sols == [frozenset(g.edge_ids())]


def test_typed_enum_c3_three_hanging_cycles():
    # three C4s, one per cut vertex; the cut vertices are 0, 4, 8
    g = disjoint_cycles([4, 4, 4])
    # joining edges so g is connected (they should not be selected for C3)
    g.add_edge(1, 5)
    g.add_edge(5, 9)
    g.add_edge(9, 1)
    val, sols = enumerate_min_typed_subgraph(g, (0, 4, 8), "C3",
                                             collect_all=True)
    assert val == 12
    assert all(len(s) == 12 for s in sols)


def test_typed_enum_impossible_type_absent():
    g = cycle_graph(7)           # a cycle cannot split into 3 components
    val, sols = enumerate_min_typed_subgraph(g, (0, 2, 4), "C3")
    assert val is None and sols == []


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


def test_typed_enumeration_golden():
    # every type on the first 20 samples with n <= 8.  The solutions stay in
    # the order the search found them and the node budget runs out on some
    # searches, so the record pins the branching order as well
    results = []
    small = [s for s in typed_sample() if s[0].n <= 8][:20]
    for g, cut, _, _ in small:
        for t in SOLUTION_TYPES:
            try:
                val, sols = enumerate_min_typed_subgraph(
                    g, cut, t, node_budget=20000, collect_all=True)
            except BudgetExceeded:
                results.append("budget")
                continue
            results.append([val, [sorted(s) for s in sols]])
    found = {t for t, r in zip(SOLUTION_TYPES * len(small), results)
             if r != "budget" and r[0] is not None}
    assert found == set(SOLUTION_TYPES)
    assert "budget" in results
    assert digest(results) == (
        "fa46d05be5b756bc65d0a6496d84ff5460027a181f3fb6aa2fb0dfda0d8a104a")


# ---------------------------------------------------------------------------
# patches

def test_find_min_patch_rejoins_split_cycle():
    g = cycle_graph(8)
    base = set(g.edge_ids()) - {0, 4}
    patch, widened = find_min_patch(g, base, bound=2)
    assert patch == {0, 4} and not widened


def test_find_min_patch_zero_when_feasible():
    g = cycle_graph(6)
    patch, widened = find_min_patch(g, set(g.edge_ids()), bound=2)
    assert patch == set()


def test_redundant_edge_drops_traced_one_entry_each_in_id_order():
    g = cycle_graph(14)
    extra = [g.add_edge(3, 4), g.add_edge(0, 1), g.add_edge(5, 5),
             g.add_edge(4, 3)]
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


def test_exact_budget_exhaustion_uses_the_incumbent():
    g = random_2ec(10, seed=3)
    report = run_pipeline(g, PipelineConfig(oracle_node_budget=20))
    assert verify_2ecss(g, report["solution"]["edges"])
    assert not report["certified"]
    assert any("exact solve" in note for note in report["notes"])


def test_exact_budget_exhaustion_on_two_vertices():
    # dropping redundant edges would leave a bridge, so the pair is kept
    g = MultiGraph(2, [(0, 1), (1, 1), (1, 0), (0, 1)])
    report = run_pipeline(g, PipelineConfig(oracle_node_budget=1))
    assert report["solution"]["edges"] == [0, 2]
    assert not report["certified"]


@pytest.mark.parametrize("budget", (5, 20, 1000))
def test_exact_budget_exhaustion_never_crashes(budget):
    # with budget 5 the exact solve finds no solution at all, so small
    # graphs, 2-vertex ones included, go down the dispatch instead
    fired = 0
    for n in range(6, 21):
        for seed in range(15):
            g = random_2ec(n, seed=seed)
            report = run_pipeline(g, PipelineConfig(oracle_node_budget=budget,
                                                    oracle_mode="off"))
            assert verify_2ecss(g, report["solution"]["edges"]), (n, seed)
            if any("exact solve" in note for note in report["notes"]):
                fired += 1
                assert not report["certified"], (n, seed)
    assert fired


def naive_irrelevant_edge(g):
    """Lowest-id edge of the lexicographically first endpoint pair that is a
    2-vertex cut."""
    for u, v in sorted({(min(a, b), max(a, b)) for _, a, b in g.edges
                        if a != b}):
        h = nx.MultiGraph()
        h.add_nodes_from(x for x in range(g.n) if x not in (u, v))
        h.add_edges_from((a, b) for _, a, b in g.edges
                         if {a, b}.isdisjoint((u, v)))
        if nx.number_connected_components(h) >= 2:
            return min(e for e, a, b in g.edges if {a, b} == {u, v})
    return None


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
    found = [_find_irrelevant_edge(g) for g in graphs]
    assert found == [naive_irrelevant_edge(g) for g in graphs]
    assert any(e is None for e in found) and any(e is not None for e in found)


@pytest.mark.parametrize("mode", ("off", "auto", "force"))
def test_small_input_is_solved_exactly_once(monkeypatch, mode):
    # the report's oracle block reuses the reduction's depth-0 exact solve
    calls = []
    real = oracle.exact_min_2ecss

    def counting(g, budget):
        calls.append(g.n)
        return real(g, budget)

    g = random_2ec(10, seed=4)
    cfg = PipelineConfig(oracle_mode=mode)
    res = real(g, cfg.oracle_node_budget)
    monkeypatch.setattr(oracle, "exact_min_2ecss", counting)
    report = run_pipeline(g, cfg)
    assert calls == [10]
    if mode == "off":
        assert "oracle" not in report
    else:
        assert report["oracle"] == {"opt": res.value,
                                    "nodes": res.nodes_explored}


# ---------------------------------------------------------------------------
# large 3-cut end-to-end

def test_glued_cliques_reduces_feasibly():
    g = glued_cliques(10, 10, 3)
    sol, ctx = run_reduce(g, n0=12)
    assert verify_2ecss(g, sol.members)
    steps = [t["step"] for t in ctx["trace"]]
    assert any(s.startswith("3-cut") for s in steps)


def test_both_large_branch_on_big_glued_cliques():
    g = glued_cliques(12, 12, 3)
    cfg = ReductionConfig(enumeration_budget=12, typed_enum_max=10)
    sol, ctx = reduce(g, cfg, exact_leaf)
    assert verify_2ecss(g, sol.members)
    assert any(t["step"] == "3-cut-both-large" for t in ctx["trace"])


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
