"""Recursive reduction: dispatch steps, typed enumeration, 3-cut handling,
and end-to-end feasibility/optimality against the oracle."""

import hashlib
import itertools
import json
import random
from fractions import Fraction

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (complete_graph, cycle_graph, disjoint_cycles,
                      from_networkx, naive_is_2ecss, naive_min_2ecss)
from twoec.cover import canonicalize, min_triangle_free_cover
from twoec.errors import (BudgetExceeded, NotCanonical, NotTwoEdgeConnected,
                          StructuredViolation, Untypeable)
from twoec.generate import glued_cliques, random_2ec
from twoec.graph import (DegreeSearch, EdgeSubset, MultiGraph,
                         is_2ec_edge_set)
from twoec.oracle import exact_min_2ecss, verify_2ecss
from twoec.pipeline import PipelineConfig, _structured_leaf_solver, run_pipeline
from twoec import cover, graph, oracle, reduction
from twoec.reduction import (SOLUTION_TYPES, ReductionConfig,
                             _find_irrelevant_edges, classify_solution_type,
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


def test_typed_enumeration_golden(monkeypatch):
    # every type on the first 20 samples with n <= 8.  The solutions stay in
    # the order the search found them and the node budget runs out on some
    # searches, so the record pins the branching order as well
    monkeypatch.setattr(reduction, "TYPED_NODE_BUDGET", 20000)
    results = []
    small = [s for s in typed_sample() if s[0].n <= 8][:20]
    for g, cut, _, _ in small:
        for t in SOLUTION_TYPES:
            try:
                val, sols = enumerate_min_typed_subgraph(g, cut, t,
                                                         collect_all=True)
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


def test_degree_search_node_counts_golden():
    # the node count of every search next to its outcome, so a change to
    # the cost of a search node cannot move a node: every type under both
    # tie rules, built as enumerate_min_typed_subgraph builds it, on the
    # first sample with n <= 10 (its B2 search with collect_all runs out of
    # budget) and the first 12 sparse ones, then the exact triangle-free
    # cover search on random_2ec graphs
    small = [s for s in typed_sample() if s[0].n <= 10]
    sparse = [s for s in small if s[0].m <= 2 * s[0].n][:12]
    results = []
    for g, cut, _, _ in small[:1] + sparse:
        cut = set(cut)
        for t in SOLUTION_TYPES:
            for collect in (False, True):
                search = DegreeSearch(g, cut, 20000,
                                      reduction._typed_completion(g, cut, t),
                                      t, collect)
                try:
                    val, sols = search.solve()
                except BudgetExceeded:
                    results.append(["budget", search.nodes])
                    continue
                results.append([val, [sorted(s) for s in sols], search.nodes])
    assert ["budget", 20001] in results
    rng = random.Random(77)
    for _ in range(10):
        g = random_2ec(rng.randint(6, 12), seed=rng.randrange(10 ** 6))
        search = DegreeSearch(g, (), cover.TF_NODE_BUDGET,
                              cover._tf_completion(g), "tf")
        val, sols = search.solve()
        results.append([val, [sorted(s) for s in sols], search.nodes])
    assert digest(results) == (
        "ac0cb32c3c07291c06af7922aefe09d8ec64a0a10387d7a804f3ac53c2d974ab")


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


@pytest.mark.parametrize("mode", ("off", "auto", "force"))
def test_small_input_is_solved_exactly_once(monkeypatch, mode):
    # the base case runs on graph.min_2ecss, never on the reference, and the
    # report's oracle block reuses its depth-0 solve
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
    g = glued_cliques(10, 10, 3)
    sol, ctx = run_reduce(g, n0=12)
    assert verify_2ecss(g, sol.members)
    steps = [t["step"] for t in ctx["trace"]]
    assert any(s.startswith("3-cut") for s in steps)


def test_both_large_branch_on_big_glued_cliques(monkeypatch):
    monkeypatch.setattr(reduction, "TYPED_ENUM_MAX", 10)
    g = glued_cliques(12, 12, 3)
    cfg = ReductionConfig(enumeration_budget=12)
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
        _structured_leaf_solver(PipelineConfig(), [])(g)
    assert exc.value.edges == {0, 1, 10}
    assert is_2ec_edge_set(g, exc.value.edges)
