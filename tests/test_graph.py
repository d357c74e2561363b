"""Core graph layer: decomposition, cuts, matchings, disjoint paths,
contractibility certificates."""

import hashlib
import itertools
import json
import random
from fractions import Fraction

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (complete_graph, cycle_graph, disjoint_cycles,
                      naive_bridges, petersen, subdivided)
from twoec import graph, oracle
from twoec.errors import BudgetExceeded, NotTwoEdgeConnected, PatchNotFound
from twoec.generate import random_2ec
from twoec.graph import (DegreeSearch, MultiGraph,
                         _no_certifiable_candidate, certify_contractible,
                         connected_components, contract, contract_many,
                         decompose, find_contractible_certificate,
                         find_vertex_cut,
                         forced_edge_lower_bound, greedy_edges_inside,
                         induced_subgraph, is_2ec_edge_set,
                         is_two_edge_connected, iterate_vertex_cuts,
                         low_link, max_matching_across, member_adjacency,
                         member_components, min_edges_inside,
                         splitting_vertices, two_ec_classes)
from twoec.reduction import min_2ecss


def random_graph(n, m, seed):
    rng = random.Random(seed)
    g = MultiGraph(n)
    for _ in range(m):
        g.add_edge(rng.randrange(n), rng.randrange(n))
    return g


# ---------------------------------------------------------------------------
# basics

def test_edge_ids_are_stable_and_sequential():
    g = MultiGraph(3)
    assert g.add_edge(0, 1) == 0
    assert g.add_edge(1, 2) == 1
    assert g.add_edge(0, 1, eid=7) == 7
    assert g.add_edge(2, 0) == 8


def test_self_loop_and_parallel_detection():
    g = cycle_graph(4)
    assert g.redundant_edges() == []
    e = g.add_edge(0, 1)
    assert g.redundant_edges() == [e]
    # a self-loop uses up a fresh id and stores nothing
    g2 = cycle_graph(4)
    loop = g2.add_edge(2, 2)
    assert loop == 4
    assert g2.m == 4 and loop not in g2.edge_ids()
    assert g2.redundant_edges() == []
    assert g2.add_edge(0, 2) == 5


def test_redundant_edges_lists_extra_parallels_ascending():
    g = cycle_graph(4)
    assert g.redundant_edges() == []
    p1 = g.add_edge(1, 0)
    g.add_edge(2, 2)
    p2 = g.add_edge(0, 1)
    assert g.redundant_edges() == [p1, p2]


def test_degree_excludes_self_loops():
    g = MultiGraph(2)
    g.add_edge(0, 1)
    g.add_edge(0, 0)
    assert g.degree(0) == 1


def test_without_edges_preserves_ids():
    g = cycle_graph(5)
    g2 = g.without_edges([2])
    assert g2.edge_ids() == {0, 1, 3, 4}


# ---------------------------------------------------------------------------
# connectivity and decomposition

def test_cycle_is_2ec_path_is_not():
    assert is_two_edge_connected(cycle_graph(5))
    path = MultiGraph(3, [(0, 1), (1, 2)])
    assert not is_two_edge_connected(path)


def test_parallel_pair_is_2ec_self_loop_is_not_connectivity():
    g = MultiGraph(2, [(0, 1), (0, 1)])
    assert is_two_edge_connected(g)
    g2 = MultiGraph(2, [(0, 1), (1, 1)])
    assert not is_two_edge_connected(g2)


def test_decompose_barbell():
    # two C4 blocks joined by one bridge: complex component, both blocks pendant
    g = disjoint_cycles([4, 4])
    bridge = g.add_edge(0, 4)
    d = decompose(g, g.edge_ids())
    assert len(d.components) == 1
    assert d.bridges == frozenset({bridge})
    assert len(d.blocks) == 2
    assert d.pendant_flags == [True, True]
    assert low_link(g.n, g.adjacency())[3] == {0, 4}


def test_decompose_components_partition_vertices():
    g = disjoint_cycles([4, 5])
    d = decompose(g, g.edge_ids())
    assert sorted(v for c in d.components for v in c) == list(range(9))
    assert all(d.component_of[v] == i
               for i, c in enumerate(d.components) for v in c)


@settings(max_examples=120, deadline=None)
@given(st.integers(3, 9), st.integers(0, 18), st.integers(0, 10 ** 6))
def test_bridges_match_naive_deletion_check(n, m, seed):
    g = random_graph(n, m, seed)
    assert decompose(g, g.edge_ids()).bridges == frozenset(naive_bridges(g))


@settings(max_examples=120, deadline=None)
@given(st.integers(3, 9), st.integers(0, 18), st.integers(0, 10 ** 6))
def test_components_and_cut_vertices_match_networkx(n, m, seed):
    g = random_graph(n, m, seed)
    h = nx.Graph()
    h.add_nodes_from(range(n))
    h.add_edges_from((u, v) for _, u, v in g.edges if u != v)
    d = decompose(g, g.edge_ids())
    assert low_link(n, g.adjacency())[3] == set(nx.articulation_points(h))
    assert d.components == sorted(sorted(c) for c in nx.connected_components(h))


@settings(max_examples=80, deadline=None)
@given(st.integers(3, 8), st.integers(3, 16), st.integers(0, 10 ** 6))
def test_2ec_iff_connected_and_bridgeless(n, m, seed):
    g = random_graph(n, m, seed)
    expect = len(connected_components(g)) == 1 and not naive_bridges(g)
    assert is_two_edge_connected(g) == expect


def naive_is_2ec_edge_set(g, edges):
    """networkx: the vertices the edges touch, at least 2, are connected by
    them, with and without each one edge."""
    emap = g.edge_map()
    touched = {x for e in edges for x in emap[e]}

    def connected(skip):
        h = nx.MultiGraph()
        h.add_nodes_from(touched)
        h.add_edges_from(emap[e] for e in edges if e != skip)
        return nx.is_connected(h)
    return len(touched) >= 2 and all(connected(e) for e in [None, *edges])


def test_2ec_edge_set_matches_networkx():
    # edge subsets of seeded random multigraphs, restricted to a random
    # vertex subset half the time so that both answers come up
    rng = random.Random(77)
    answers = []
    for _ in range(600):
        n = rng.randint(1, 7)
        g = random_graph(n, rng.randint(0, 3 * n), rng.randrange(10 ** 6))
        keep = set(rng.sample(range(n), rng.randint(1, n)))
        if rng.random() < 0.5:
            keep = set(range(n))
        edges = [e for e, u, v in g.edges
                 if u in keep and v in keep and rng.random() < 0.85]
        answers.append(is_2ec_edge_set(g, edges))
        assert answers[-1] == naive_is_2ec_edge_set(g, edges), (g.edges, edges)
    assert 50 <= sum(answers) <= 550


def nx_numbered(n, groups):
    """vertex -> group index, groups numbered by their smallest vertex."""
    index = [0] * n
    for i, c in enumerate(sorted(groups, key=min)):
        for v in c:
            index[v] = i
    return index


@pytest.mark.parametrize("seed", range(60))
def test_member_adjacency_and_two_ec_classes_match_networkx(seed):
    # seeded multigraphs with parallel edges and self-loops, and a random
    # member subset of their edges
    rng = random.Random(seed)
    n = rng.randint(1, 12)
    g = random_graph(n, rng.randint(0, 3 * n), seed)
    members = {e for e, _, _ in g.edges if rng.random() < 0.7}
    h = nx.MultiGraph()
    h.add_nodes_from(range(n))
    h.add_edges_from((u, v, e) for e, u, v in g.edges
                     if e in members and u != v)
    adj = member_adjacency(g, members)
    assert sorted((min(u, w), max(u, w), e)
                  for u, nbrs in enumerate(adj) for w, e in nbrs) == \
        sorted((min(u, v), max(u, v), e) for u, v, e in h.edges(keys=True)
               for _ in range(2))
    n_comps, comp_of, bridges, _ = low_link(n, adj)
    assert comp_of == nx_numbered(n, nx.connected_components(h))
    assert member_components(g, members) == (n_comps, comp_of)
    sub = MultiGraph(n, [(e, u, v) for e, u, v in g.edges if e in members])
    assert bridges == naive_bridges(sub)
    h.remove_edges_from([(u, v, e) for u, v, e in h.edges(keys=True)
                         if e in bridges])
    classes = list(nx.connected_components(h))
    assert two_ec_classes(n, adj, bridges) == (
        len(classes), nx_numbered(n, classes))


# ---------------------------------------------------------------------------
# cuts

def test_cycle_has_2cuts_but_no_1cut():
    g = cycle_graph(6)
    assert find_vertex_cut(g, 1) is None
    # lexicographically least cut of C6 is {0, 2}, isolating vertex 1
    cut = find_vertex_cut(g, 2)
    assert cut == (0, 2)
    assert connected_components(g, cut) == [[1], [3, 4, 5]]


def test_barbell_one_cut():
    g = disjoint_cycles([4, 4])
    g.add_edge(0, 4)
    g.add_edge(0, 5)
    assert find_vertex_cut(g, 1) == (0,)


def test_non_isolating_two_cut_kind():
    # two C5s sharing an antipodal vertex pair
    g = MultiGraph(8)
    for path in ([0, 2, 3, 1], [0, 4, 5, 1], [0, 6, 7, 1]):
        for a, b in zip(path, path[1:]):
            g.add_edge(a, b)
    cut = find_vertex_cut(g, 2)
    assert cut == (0, 1)
    assert connected_components(g, cut) == [[2, 3], [4, 5], [6, 7]]


def test_three_cut_kinds_on_glued_cliques():
    from twoec.generate import glued_cliques
    g = glued_cliques(10, 10, 3)
    # the shared triple leaves the two clique sides, 7 vertices each
    assert [connected_components(g, cut)
            for cut in iterate_vertex_cuts(g, 3)] == [
        [list(range(3, 10)), list(range(10, 17))]]
    assert complete_graph(6).n == 6
    assert find_vertex_cut(complete_graph(6), 3) is None


def test_cut_enumeration_is_lexicographic(monkeypatch):
    g = cycle_graph(5)
    cuts = list(iterate_vertex_cuts(g, 2))
    assert len(cuts) == 5
    assert cuts == sorted(cuts)
    assert all(list(cut) == sorted(cut) for cut in cuts)
    # one pass per prefix, and no prefix ends at the last vertex
    passes = []
    real = graph.splitting_vertices
    monkeypatch.setattr(graph, "splitting_vertices",
                        lambda adj, removed: passes.append(sorted(removed))
                        or real(adj, removed))
    assert len(list(iterate_vertex_cuts(cycle_graph(7), 3))) == 35 - 7
    assert passes == [list(p) for p in itertools.combinations(range(6), 2)]


def test_region_limits_the_two_cut_scan(monkeypatch):
    # a dense graph with the edge uv subdivided by x: the core is every
    # vertex but x, the region N(x) = {u, v}, and the scan limited to it
    # makes |R| - 1 = 1 pass and finds the one 2-cut
    dense = random_2ec(16, p=0.7, seed=3)
    _, u, v = dense.edges[0]
    g = subdivided(dense, [(u, v)])
    core = graph.three_cut_core(g)
    region = graph.cut_region(g, core)
    assert core == set(range(16)) and region == {u, v}
    assert list(iterate_vertex_cuts(g, 2)) == [(u, v)]
    passes = []
    real = graph.splitting_vertices
    monkeypatch.setattr(graph, "splitting_vertices",
                        lambda adj, removed: passes.append(sorted(removed))
                        or real(adj, removed))
    assert list(iterate_vertex_cuts(g, 2, region)) == [(u, v)]
    assert passes == [[u]] and len(passes) == len(region) - 1


def test_core_of_a_chorded_cycle_tries_no_fan(monkeypatch):
    # C_12 with the chords 0-4, 4-8 and 8-0: only 3 vertices have 4
    # neighbors, so the core is empty before any fan is tried
    fans = []
    real = graph.fan
    monkeypatch.setattr(graph, "fan",
                        lambda *args: fans.append(args) or real(*args))
    g = cycle_graph(12)
    for a, b in ((0, 4), (4, 8), (8, 0)):
        g.add_edge(a, b)
    assert graph.three_cut_core(g) == set()
    assert graph.cut_region(g, set()) == set(range(12))
    assert fans == []


def naive_vertex_cuts(g, k):
    """(cut, sorted components of G - cut ordered by smallest vertex) for
    every separating k-subset, in lexicographic order."""
    out = []
    for cut in itertools.combinations(range(g.n), k):
        h = nx.MultiGraph()
        h.add_nodes_from(v for v in range(g.n) if v not in cut)
        h.add_edges_from((u, v) for _, u, v in g.edges
                         if u not in cut and v not in cut)
        comps = sorted(map(sorted, nx.connected_components(h)))
        if len(comps) >= 2:
            out.append((cut, comps))
    return out


def cut_scan_graphs():
    """Seeded multigraphs with self-loops and parallel edges (sparse ones are
    often disconnected), plus graphs where a prefix of a cut already splits
    the graph: cliques sharing one or two vertices, disjoint cycles."""
    graphs = []
    for seed in range(80):
        rng = random.Random(seed)
        n = rng.randint(1, 10)
        graphs.append(random_graph(n, rng.randint(0, 3 * n), seed))
    for shared in (1, 2):
        g = MultiGraph(9 - shared)
        for side in (range(5), range(5 - shared, 9 - shared)):
            for u, v in itertools.combinations(side, 2):
                g.add_edge(u, v)
        g.add_edge(0, 0)
        g.add_edge(0, 1)
        graphs.append(g)
    graphs.append(disjoint_cycles([3, 1, 4]))
    return graphs


@pytest.mark.parametrize("k", [1, 2, 3])
def test_vertex_cuts_match_networkx(k):
    for g in cut_scan_graphs():
        assert [(cut, connected_components(g, cut))
                for cut in iterate_vertex_cuts(g, k)] == \
            naive_vertex_cuts(g, k), g.edges


def test_three_cut_core_stays_in_one_component():
    # seeded multigraphs with parallel edges and self-loops: for every 3-set
    # S the core less S lies in one component of G - S, and the fan helper
    # finds networkx's local vertex connectivity, up to 4, in paths that
    # share only their start, follow edges, end at distinct targets without
    # passing through another and avoid the removed vertex
    rng = random.Random(1414)
    sizes = []
    for i in range(150):
        n, p = rng.randint(6, 13), rng.uniform(0.3, 0.8)
        g = MultiGraph(n)
        for u, v in itertools.combinations(range(n), 2):
            for _ in range(rng.random() < p and 1 + (rng.random() < 0.1)):
                g.add_edge(u, v)
        for _ in range(rng.randint(0, 2)):
            v = rng.randrange(n)
            g.add_edge(v, v)
        core = graph.three_cut_core(g)
        sizes.append(len(core) / n)
        h = nx.Graph([(u, v) for _, u, v in g.edges if u != v])
        h.add_nodes_from(range(g.n))
        for cut in itertools.combinations(range(n), 3):
            rest = core.difference(cut)
            if rest:
                kept = h.subgraph(set(range(n)).difference(cut))
                assert rest <= nx.node_connected_component(kept, min(rest))
        if i % 10 == 0:
            for a, b in itertools.combinations(range(n), 2):
                if not h.has_edge(a, b):
                    targets = set(h[b])
                    paths = graph.fan(g.adjacency(), a, targets, {b})
                    assert len(paths) == min(4, nx.node_connectivity(h, a, b))
                    inner = [v for p in paths for v in p]
                    assert len(inner) == len(set(inner)) and a not in inner
                    assert all(h.has_edge(x, y) for p in paths
                               for x, y in itertools.pairwise([a] + p))
                    assert all(targets.intersection(p) == {p[-1]}
                               for p in paths)
                    assert b not in inner
                    assert [p[0] for p in paths] == sorted(p[0] for p in paths)
    # empty cores, cores short of the whole graph and whole-graph cores
    assert 0 in sizes and 1 in sizes and any(0 < s < 1 for s in sizes)


def test_low_link_with_removed_vertices_matches_networkx():
    # seeded multigraphs with parallel edges and self-loops, less 0-3
    # vertices; some of the removed sets disconnect a connected graph
    disconnecting = 0
    for seed in range(80):
        rng = random.Random(seed)
        n = rng.randint(1, 12)
        g = random_graph(n, rng.randint(n, 3 * n), seed)
        removed = set(rng.sample(range(n), rng.randint(0, min(3, n))))
        kept = [v for v in range(n) if v not in removed]
        h = nx.MultiGraph()
        h.add_nodes_from(kept)
        h.add_edges_from((u, v, e) for e, u, v in g.edges
                         if u != v and u not in removed and v not in removed)
        adj = g.adjacency()
        n_comps, comp_of, bridges, points = low_link(n, adj, removed)
        comps = sorted(nx.connected_components(h), key=min)
        assert n_comps == len(comps)
        assert [comp_of[v] for v in kept] == [
            next(i for i, c in enumerate(comps) if v in c) for v in kept]
        assert all(comp_of[v] == -1 for v in removed)
        naive = set()
        for u, v, e in list(h.edges(keys=True)):
            h.remove_edge(u, v, key=e)
            if nx.number_connected_components(h) > n_comps:
                naive.add(e)
            h.add_edge(u, v, key=e)
        assert bridges == naive
        assert points == set(nx.articulation_points(nx.Graph(h)))
        assert splitting_vertices(adj, removed) == {
            v for v in kept
            if nx.number_connected_components(
                h.subgraph(set(kept) - {v})) >= 2}
        if n_comps > 1 and low_link(n, adj)[0] == 1:
            disconnecting += 1
    assert disconnecting >= 5


def naive_pendant_flags(g, d):
    """Per block B of component C: C has a bridge and C - V(B) is empty or
    connected, in g with all its edges."""
    emap = g.edge_map()
    h = nx.MultiGraph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from((u, v) for _, u, v in g.edges)
    flags = []
    for block in d.blocks:
        comp = nx.node_connected_component(h, emap[block[0]][0])
        complex_ = any(emap[e][0] in comp for e in d.bridges)
        rest = comp - {x for e in block for x in emap[e]}
        flags.append(complex_ and (not rest or nx.is_connected(h.subgraph(rest))))
    return flags


@pytest.mark.parametrize("seed", range(60))
def test_pendant_flags_match_naive_check(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 12)
    g = random_graph(n, rng.randint(0, 3 * n), seed)
    members = frozenset(e for e, _, _ in g.edges if rng.random() < 0.8)
    for sub in (g, MultiGraph(n, [e for e in g.edges if e[0] in members])):
        d = decompose(g, sub.edge_ids())
        assert d.pendant_flags == naive_pendant_flags(sub, d)


# ---------------------------------------------------------------------------
# include/exclude search

def naive_min_degree_sets(g, demand):
    """All minimum sets of loop-free edges giving every vertex v degree >=
    demand[v], by size-ordered subset scan: (size, sets) or (None, [])."""
    edges = [(e, u, v) for e, u, v in g.edges if u != v]
    for size in range(len(edges) + 1):
        found = []
        for combo in itertools.combinations(edges, size):
            deg = [0] * g.n
            for _, u, v in combo:
                deg[u] += 1
                deg[v] += 1
            if all(deg[v] >= demand[v] for v in range(g.n)):
                found.append(frozenset(e for e, _, _ in combo))
        if found:
            return size, found
    return None, []


@pytest.mark.parametrize("seed", range(80))
def test_degree_search_matches_brute_force(seed):
    # n <= 7 multigraphs with parallel edges and self-loops; the demand is
    # 2 everywhere, 1 on three vertices or random in 0-2.  The search finds
    # one minimum set; a cap at or above the minimum finds the same set, and
    # one below it finds none
    rng = random.Random(seed)
    n = rng.randint(1, 7)
    g = random_graph(n, rng.randint(n, min(3 * n, 11)), seed)
    demand = {0: [2] * n, 1: [1] * min(3, n) + [2] * (n - 3)}.get(
        seed % 3, [rng.choice((0, 1, 2)) for _ in range(n)])
    size, sets = naive_min_degree_sets(g, demand)

    def search(cap=None):
        return DegreeSearch(g, demand, 10 ** 6, lambda inc, exc: None,
                            "test", cap=cap).solve()

    best, found = search()
    assert best == size
    if size is None:
        assert found is None
        return
    assert found in sets
    assert search(size - 1) == (None, None)
    assert search(size) == search(size + 1) == (size, found)


def test_degree_search_budget_raises_with_its_message():
    g = complete_graph(6)
    search = DegreeSearch(g, [2] * g.n, 5, lambda inc, exc: None,
                          "tiny budget")
    with pytest.raises(BudgetExceeded, match="^tiny budget$"):
        search.solve()
    assert search.nodes == 6


# ---------------------------------------------------------------------------
# exact base case

def base_case_sample(count, seed):
    """2EC multigraphs with n 2-12: random_2ec graphs with self-loops and
    bundles of three or more parallels added, and bundles on 2 vertices,
    their edge lists shuffled so ids do not follow vertex order."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(2, 12)
        if n == 2:
            edges = [(0, 1)] * rng.randint(2, 5)
        else:
            g = random_2ec(n, seed=rng.randrange(10 ** 6))
            edges = [(u, v) for _, u, v in g.edges]
            for _ in range(rng.randint(0, 3)):
                x = rng.randrange(n)
                edges.append((x, x))
            for _ in range(rng.randint(0, 2)):
                u, v = rng.choice(edges[:g.m])
                edges += [(v, u)] * rng.randint(2, 3)
        rng.shuffle(edges)
        yield MultiGraph(n, edges)


def test_min_2ecss_matches_reference_oracle():
    # the reference branches in the same order, so both find the same first
    # minimum set after the same number of nodes
    for g in base_case_sample(400, 16):
        ref = oracle.exact_min_2ecss(g)
        res = min_2ecss(g, oracle.DEFAULT_BUDGET)
        assert res.certified and ref.certified
        assert (res.value, res.witness.members, res.nodes_explored) == (
            ref.value, ref.witness.members, ref.nodes_explored)


@pytest.mark.parametrize("budget", (8, 40, 200))
def test_min_2ecss_budget_keeps_the_references_incumbent(budget):
    # out of budget, both return the same incumbent, or both None
    for g in base_case_sample(40, budget):
        ref = oracle.exact_min_2ecss(g, budget)
        res = min_2ecss(g, budget)
        if ref is None:
            assert res is None
        else:
            assert (res.value, res.witness.members, res.certified) == (
                ref.value, ref.witness.members, ref.certified)


def test_min_2ecss_edge_cases():
    one = min_2ecss(MultiGraph(1, [(0, 0)]), 10)
    assert (one.value, one.witness.members, one.certified) == (0, set(), True)
    with pytest.raises(NotTwoEdgeConnected):
        min_2ecss(MultiGraph(3, [(0, 1), (1, 2), (2, 2)]), 1000)


def test_min_2ecss_node_counts_golden():
    # the value, edge set and node count of the base case on random_2ec
    # graphs, so a change to the search kernel cannot move them silently
    rng = random.Random(78)
    results = []
    for _ in range(10):
        g = random_2ec(rng.randint(6, 12), seed=rng.randrange(10 ** 6))
        res = min_2ecss(g, oracle.DEFAULT_BUDGET)
        results.append([res.value, sorted(res.witness.members),
                        res.nodes_explored])
    # recorded from oracle.exact_min_2ecss, which gives the same digest
    assert hashlib.sha256(json.dumps(results).encode()).hexdigest() == (
        "40714f69361b5e84c84f4c9bbc6f215b6be41a065a45c0fcb57f4585a7a6d523")


# ---------------------------------------------------------------------------
# matchings

def test_matching_across_c6_bipartition():
    g = cycle_graph(6)
    m = max_matching_across(g, {0, 2, 4}, {1, 3, 5})
    assert len(m) == 3


def test_matching_respects_sides():
    g = complete_graph(6)
    m = max_matching_across(g, {0, 1}, {2, 3, 4})
    assert len(m) == 2
    emap = g.edge_map()
    for e in m:
        u, v = emap[e]
        assert (u in {0, 1}) != (v in {0, 1})


def test_matching_is_a_matching():
    g = complete_graph(7)
    m = max_matching_across(g, {0, 1, 2}, {3, 4, 5, 6})
    emap = g.edge_map()
    seen = set()
    for e in m:
        for x in emap[e]:
            assert x not in seen
            seen.add(x)


# ---------------------------------------------------------------------------
# contraction / induced subgraphs

def test_contract_preserves_edge_ids_and_drops_internal_edges():
    g = cycle_graph(4)
    g.add_edge(1, 0)
    c = contract(g, {0, 1})
    assert c.n == 3
    assert c.edge_ids() == {1, 2, 3}     # edges 0 and 4 lay inside {0, 1}
    assert c.edge_map() == {1: (0, 1), 2: (1, 2), 3: (2, 0)}


@pytest.mark.parametrize("seed", range(40))
def test_no_multigraph_holds_a_self_loop(seed):
    # random multigraphs drawn with self-loops and parallels: construction,
    # contraction and induced subgraphs store no loop and keep the id of
    # every edge whose ends stay apart
    rng = random.Random(seed)
    n = rng.randint(2, 10)
    drawn = [(rng.randrange(n), rng.randrange(n))
             for _ in range(rng.randint(0, 3 * n))]
    g = MultiGraph(n, drawn)
    assert g.edges == [(e, u, v) for e, (u, v) in enumerate(drawn) if u != v]
    assert g.add_edge(0, 1) == len(drawn)
    a, b, vs = (set(rng.sample(range(n), rng.randint(1, n)))
                for _ in range(3))
    sets = [a] if a & b else [a, b]
    rep = {v: min(s) for s in sets for v in s}
    for h, keeps in (
            (contract(g, a), lambda u, v: not (u in a and v in a)),
            (contract_many(g, sets),
             lambda u, v: rep.get(u, u) != rep.get(v, v)),
            (induced_subgraph(g, vs)[0], lambda u, v: u in vs and v in vs)):
        assert all(u != v for _, u, v in h.edges)
        assert h.edge_ids() == {e for e, u, v in g.edges if keeps(u, v)}


def test_contract_many_disjoint():
    g = cycle_graph(6)
    c = contract_many(g, [{0, 1}, {3, 4}])
    assert c.n == 4
    assert is_two_edge_connected(
        MultiGraph(c.n, [(e, u, v) for e, u, v in c.edges if u != v]))


def test_contract_rejects_overlap():
    g = cycle_graph(5)
    with pytest.raises(ValueError):
        contract_many(g, [{0, 1}, {1, 2}])


def test_induced_subgraph_keeps_ids_and_next_eid():
    g = cycle_graph(6)
    sub, vmap = induced_subgraph(g, {0, 1, 2})
    assert sub.edge_ids() == {0, 1}
    fresh = sub.add_edge(0, 2)
    assert fresh >= 6        # fresh ids never collide with host ids


def test_contract_propagates_next_eid():
    g = cycle_graph(6)
    assert contract(g, {0, 1}).add_edge(0, 1) >= 6


# ---------------------------------------------------------------------------
# contractibility

def c5_with_interior():
    """C5 hung inside a host so that two independent cycle vertices have all
    neighbors inside the cycle: forces 4 >= 5/(5/4) edges inside."""
    g = MultiGraph(8)
    cyc = [g.add_edge(i, (i + 1) % 5) for i in range(5)]
    # attach the rest of the host at vertices 0, 2, 3 only
    g.add_edge(0, 5)
    g.add_edge(2, 6)
    g.add_edge(3, 7)
    g.add_edge(5, 6)
    g.add_edge(6, 7)
    g.add_edge(5, 7)
    return g, cyc


def test_forced_edge_lower_bound_on_interior_c5():
    g, cyc = c5_with_interior()
    # vertices 1 and 4 are interior and independent
    assert forced_edge_lower_bound(g, {0, 1, 2, 3, 4}) >= 4


def test_certify_contractible_c5():
    from fractions import Fraction
    g, cyc = c5_with_interior()
    assert certify_contractible(g, cyc, Fraction(5, 4)) is not None


def test_certificate_scan_finds_the_c5():
    from fractions import Fraction
    g, cyc = c5_with_interior()
    got = find_contractible_certificate(g, Fraction(5, 4))
    assert got is not None
    edges, justification = got
    # witness is a cycle: every support vertex has degree exactly 2
    emap = g.edge_map()
    deg = {}
    for e in edges:
        u, v = emap[e]
        deg[u] = deg.get(u, 0) + 1
        deg[v] = deg.get(v, 0) + 1
    assert all(d == 2 for d in deg.values())
    assert justification


def test_no_false_certificate_on_petersen():
    from fractions import Fraction
    # Petersen has no small contractible subgraph at alpha = 5/4: every vertex
    # has a neighbor outside any <= 7-vertex cycle (girth 5, 3-regular)
    assert find_contractible_certificate(petersen(), Fraction(5, 4)) is None


def random_2ec_multigraph(rng, n):
    """A Hamiltonian cycle in random vertex order plus random extra edges,
    parallel edges and self-loops included."""
    order = rng.sample(range(n), n)
    g = MultiGraph(n)
    for i in range(n):
        g.add_edge(order[i], order[(i + 1) % n])
    for _ in range(rng.randint(0, n)):
        g.add_edge(rng.randrange(n), rng.randrange(n))
    for _ in range(rng.randint(0, 3)):
        _, u, v = rng.choice(g.edges)
        g.add_edge(u, v if rng.random() < 0.7 else u)
    return g


@pytest.mark.parametrize("seed", range(4))
def test_min_edges_inside_matches_oracle(seed):
    # the patch search against the reference's subset scan over inside edges
    rng = random.Random(seed)
    values = set()
    for _ in range(60):
        g = random_2ec_multigraph(rng, rng.randint(4, 12))
        s = set(rng.sample(range(g.n), rng.randint(2, min(8, g.n))))
        got = min_edges_inside(g, s)
        assert got == oracle.min_edges_inside(g, s), (g.edges, s)
        values.add(got)
    assert len(values) >= 4


def exact_only_certificate(g, c_edges, alpha):
    """`certify_contractible` without the greedy bound: the forced-degree
    bound, then the reference's exact inside count."""
    s = {x for e in c_edges for x in g.edge(e)}
    need = Fraction(len(c_edges)) / alpha
    lb = forced_edge_lower_bound(g, s)
    if lb >= need:
        return f"forced-degree: {lb} forced edges >= |E(C)|/alpha = {need}"
    m = None
    if len(s) <= 8 and g.n <= 24:
        m = oracle.min_edges_inside(g, s)
    if m is not None and m >= need:
        return f"exact: min edges inside = {m} >= {need}"
    return None


@pytest.mark.parametrize("seed", range(3))
def test_greedy_inside_bound_is_sound(seed):
    # the greedy count bounds the exact one from above, so ruling a cycle
    # out on it never changes `certify_contractible`'s verdict
    rng = random.Random(1000 + seed)
    verdicts = set()
    ruled_out = 0
    for _ in range(25):
        g = random_2ec_multigraph(rng, rng.randint(4, 12))
        s = set(rng.sample(range(g.n), rng.randint(2, min(8, g.n))))
        assert greedy_edges_inside(g, s) >= oracle.min_edges_inside(g, s)
        eid = {}
        for e, u, v in sorted(g.edges, reverse=True):
            eid[frozenset((u, v))] = e
        h = nx.Graph([(u, v) for _, u, v in g.edges if u != v])
        cycles = sorted(nx.simple_cycles(h, length_bound=8))
        for cycle in rng.sample(cycles, min(4, len(cycles))):
            c_edges = [eid[frozenset((u, cycle[i - 1]))]
                       for i, u in enumerate(cycle)]
            for alpha in (Fraction(5, 4), Fraction(3, 2)):
                got = certify_contractible(g, c_edges, alpha)
                assert got == exact_only_certificate(g, c_edges, alpha)
                verdicts.add(got and got.split(":")[0])
                ruled_out += greedy_edges_inside(
                    g, set(cycle)) < len(c_edges) / alpha
    assert verdicts == {None, "forced-degree", "exact"} and ruled_out


def test_min_edges_inside_caps_and_non_2ec_input():
    c10 = cycle_graph(10)
    assert min_edges_inside(c10, set(range(8))) == 7
    assert min_edges_inside(c10, set(range(9))) is None     # |s| > 8
    assert min_edges_inside(complete_graph(8), set(range(8))) is None  # 28 > 24
    assert min_edges_inside(cycle_graph(24), {0, 1}) == 1
    assert min_edges_inside(cycle_graph(25), {0, 1}) is None  # n > 24
    path = MultiGraph(3, [(0, 1), (1, 2)])
    with pytest.raises(PatchNotFound):
        min_edges_inside(path, {0, 1})
    assert greedy_edges_inside(path, {0, 1}) is None
    assert greedy_edges_inside(c10, set(range(9))) is None
    assert greedy_edges_inside(complete_graph(8), set(range(8))) is None
    assert greedy_edges_inside(cycle_graph(25), {0, 1}) is None
    assert greedy_edges_inside(c10, set(range(8))) == 7


def hamiltonian_union(rng, n, k):
    """The union of k random Hamiltonian cycles on n vertices, parallel
    edges dropped: 2-edge-connected, degrees at most 2k, few short cycles."""
    pairs = set()
    for _ in range(k):
        order = rng.sample(range(n), n)
        pairs |= {tuple(sorted((order[i - 1], order[i]))) for i in range(n)}
    return MultiGraph(n, sorted(pairs))


def contractibility_sample():
    """Seeded graphs for the contractibility scan: n 25-32 random-2ec graphs
    at the default density (kept to n <= 27, where the cycles of at most 7
    vertices can be listed) and at p 0.12-0.2, unions of three Hamiltonian
    cycles with 0-3 edges subdivided by degree-2 vertices, and a C5 with one
    or two interior vertices hung on a sparse host; then n 20-24 graphs,
    where the exact inside count runs."""
    rng = random.Random(4242)
    graphs = []
    for _ in range(3):
        graphs.append(random_2ec(rng.randint(25, 27),
                                 seed=rng.randrange(10 ** 6)))
    for _ in range(6):
        graphs.append(random_2ec(rng.randint(25, 32), p=rng.uniform(0.12, 0.2),
                                 seed=rng.randrange(10 ** 6)))
    for i in range(8):
        g = hamiltonian_union(rng, rng.randint(25, 29), 3)
        graphs.append(subdivided(g, [(u, v) for _, u, v in
                                     rng.sample(g.edges, i % 4)]))
    for i in range(6):
        # the C5 takes vertices 0-4 and the host is sparse, so the scan meets
        # the C5 before its budget runs out; cycle vertices 0 and 2 (both, or
        # only 0) get no host neighbor
        host = random_2ec(rng.randint(20, 27), p=rng.uniform(0.12, 0.2),
                          seed=rng.randrange(10 ** 6))
        g = MultiGraph(host.n + 5, [(u + 5, v + 5) for _, u, v in host.edges])
        for j in range(5):
            g.add_edge(j, (j + 1) % 5)
        for j in ((1, 3, 4) if i % 2 else (1, 2, 3, 4)):
            g.add_edge(j, 5 + rng.randrange(host.n))
        graphs.append(g)
    small = []
    for _ in range(8):
        p = rng.choice((None, rng.uniform(0.15, 0.25)))
        small.append(random_2ec(rng.randint(20, 24), p=p,
                                seed=rng.randrange(10 ** 6)))
    return graphs, small


def test_contractible_scan_golden():
    # recorded before the scan learned to skip graphs where no candidate
    # can be certified
    graphs, small = contractibility_sample()
    results = []
    for g in graphs + small:
        for alpha in (Fraction(5, 4), Fraction(3, 2), Fraction(2)):
            got = find_contractible_certificate(g, alpha)
            results.append(got and [sorted(got[0]), got[1]])
    assert any(results) and not all(results)
    assert hashlib.sha256(json.dumps(results).encode()).hexdigest() == (
        "5b54cdd53144a518a798e5347e8d0fd93a141428137a5f032151beaffdaeff2a")


def skip_boundary_graphs():
    """Unions of three Hamiltonian cycles on 24 vertices plus two vertices
    a = 24, b = 25: a and b of degree 3 with a closed union of 6 or 7
    vertices, or of degree 2 at distance 3.  At alpha 5/4 a cycle of at most
    5 vertices needs two interior or degree-2 vertices, which then fit in 5
    vertices or lie within distance 2, and a cycle of 6 or 7 vertices needs
    three, so the skip fires on each graph; a pair bound of 7 vertices or
    distance 3 would not."""
    rng = random.Random(77)
    graphs = []
    for a_nbrs, b_nbrs in (((0, 1, 2), (0, 1, 3)), ((0, 1, 2), (0, 3, 4)),
                           ((0, 1), (2, 3))):
        g = hamiltonian_union(rng, 24, 3)
        _, u, v = g.edges[0]
        x = [w for w in rng.sample(range(24), 7) if w not in (u, v)]
        if len(a_nbrs) == 2:
            # a - u - v - b through a host edge
            x = [x[0], u, v, x[1]]
        g = MultiGraph(26, [(y, z) for _, y, z in g.edges]
                       + [(24, x[i]) for i in a_nbrs]
                       + [(25, x[i]) for i in b_nbrs])
        graphs.append(g)
    return graphs


def test_contractible_skip_is_sound():
    # whenever the skip fires, no cycle of at most 7 vertices is certified;
    # it never fires where the exact inside count runs or 3 / alpha <= 2
    graphs, small = contractibility_sample()
    boundary = skip_boundary_graphs()
    for g in boundary:
        h = nx.Graph([(u, v) for _, u, v in g.edges])
        closed = set(h[24]) | set(h[25]) | {24, 25}
        assert len(closed) in (6, 7) and not h.has_edge(24, 25)
        assert _no_certifiable_candidate(g, Fraction(5, 4), 7)
    # the last pair has degree 2
    assert nx.shortest_path_length(h, 24, 25) == 3
    graphs += boundary
    fired = 0
    for g in graphs:
        assert not _no_certifiable_candidate(g, Fraction(3, 2), 7)
        assert not _no_certifiable_candidate(g, Fraction(2), 7)
        if not _no_certifiable_candidate(g, Fraction(5, 4), 7):
            continue
        fired += 1
        eid = {frozenset((u, v)): e for e, u, v in g.edges}
        h = nx.Graph([(u, v) for _, u, v in g.edges])
        for cycle in nx.simple_cycles(h, length_bound=7):
            edges = [eid[frozenset((u, cycle[i - 1]))]
                     for i, u in enumerate(cycle)]
            assert certify_contractible(g, edges, Fraction(5, 4)) is None
    assert 0 < fired < len(graphs)
    for g in small:
        for alpha in (Fraction(5, 4), Fraction(3, 2), Fraction(2)):
            assert not _no_certifiable_candidate(g, alpha, 7)
