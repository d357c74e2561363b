"""Core graph layer: decomposition, cuts, matchings, cycle search,
contractibility certificates."""

import itertools
import random

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (complete_graph, cycle_graph, disjoint_cycles,
                      naive_bridges, petersen)
from twoec import oracle
from twoec.errors import BudgetExceeded, PatchNotFound
from twoec.graph import (DegreeSearch, EdgeSubset, MultiGraph,
                         certify_contractible,
                         connected_components, contract, contract_many,
                         decompose, find_contractible_certificate,
                         find_cycle_through_edges, find_vertex_cut,
                         forced_edge_lower_bound, induced_subgraph,
                         is_two_edge_connected, iterate_vertex_cuts,
                         low_link, max_matching_across, member_adjacency,
                         min_edges_inside, two_ec_classes)


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
    assert g.has_self_loop_or_parallel() is None
    e = g.add_edge(0, 1)
    assert g.has_self_loop_or_parallel() == e
    g2 = cycle_graph(4)
    loop = g2.add_edge(2, 2)
    assert g2.has_self_loop_or_parallel() == loop


def test_redundant_edges_lists_loops_and_extra_parallels_ascending():
    g = cycle_graph(4)
    assert g.redundant_edges() == []
    p1 = g.add_edge(1, 0)
    loop = g.add_edge(2, 2)
    p2 = g.add_edge(0, 1)
    assert g.redundant_edges() == [p1, loop, p2]
    assert g.has_self_loop_or_parallel() == p1


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
    d = decompose(g)
    assert len(d.components) == 1
    assert d.bridges == frozenset({bridge})
    assert len(d.blocks) == 2
    assert d.pendant_flags == [True, True]
    assert d.cut_vertices == frozenset({0, 4})


def test_decompose_components_partition_vertices():
    g = disjoint_cycles([4, 5])
    d = decompose(g)
    assert sorted(v for c in d.components for v in c) == list(range(9))
    assert all(d.component_of[v] == i
               for i, c in enumerate(d.components) for v in c)


@settings(max_examples=120, deadline=None)
@given(st.integers(3, 9), st.integers(0, 18), st.integers(0, 10 ** 6))
def test_bridges_match_naive_deletion_check(n, m, seed):
    g = random_graph(n, m, seed)
    assert decompose(g).bridges == frozenset(naive_bridges(g))


@settings(max_examples=120, deadline=None)
@given(st.integers(3, 9), st.integers(0, 18), st.integers(0, 10 ** 6))
def test_components_and_cut_vertices_match_networkx(n, m, seed):
    g = random_graph(n, m, seed)
    h = nx.Graph()
    h.add_nodes_from(range(n))
    h.add_edges_from((u, v) for _, u, v in g.edges if u != v)
    d = decompose(g)
    assert d.cut_vertices == frozenset(nx.articulation_points(h))
    assert d.components == sorted(sorted(c) for c in nx.connected_components(h))


@settings(max_examples=80, deadline=None)
@given(st.integers(3, 8), st.integers(3, 16), st.integers(0, 10 ** 6))
def test_2ec_iff_connected_and_bridgeless(n, m, seed):
    g = random_graph(n, m, seed)
    expect = len(connected_components(g)) == 1 and not naive_bridges(g)
    assert is_two_edge_connected(g) == expect


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
    cert = find_vertex_cut(g, 2)
    assert cert is not None
    # lexicographically least cut of C6 is {0, 2}, isolating vertex 1
    assert sorted(cert.cut) == [0, 2]
    assert cert.kind == "TwoIsolating"


def test_barbell_one_cut():
    g = disjoint_cycles([4, 4])
    g.add_edge(0, 4)
    g.add_edge(0, 5)
    cert = find_vertex_cut(g, 1)
    assert cert is not None and set(cert.cut) == {0}


def test_non_isolating_two_cut_kind():
    # two C5s sharing an antipodal vertex pair
    g = MultiGraph(8)
    for path in ([0, 2, 3, 1], [0, 4, 5, 1], [0, 6, 7, 1]):
        for a, b in zip(path, path[1:]):
            g.add_edge(a, b)
    cert = find_vertex_cut(g, 2, kind="TwoNonIsolating")
    assert cert is not None
    assert set(cert.cut) == {0, 1}
    assert len(cert.residual_components) == 3


def test_three_cut_kinds_on_glued_cliques():
    from twoec.generate import glued_cliques
    g = glued_cliques(10, 10, 3)
    kinds = {c.kind for c in iterate_vertex_cuts(g, 3)}
    assert "ThreeLarge" in kinds
    assert complete_graph(6).n == 6
    assert find_vertex_cut(complete_graph(6), 3) is None


def test_cut_enumeration_is_lexicographic():
    g = cycle_graph(5)
    cuts = [tuple(sorted(c.cut)) for c in iterate_vertex_cuts(g, 2)]
    assert cuts == sorted(cuts)


def naive_vertex_cuts(g, k):
    """(cut, components of G - cut ordered by smallest vertex) for every
    separating k-subset, in lexicographic order."""
    out = []
    for cut in itertools.combinations(range(g.n), k):
        h = nx.MultiGraph()
        h.add_nodes_from(v for v in range(g.n) if v not in cut)
        h.add_edges_from((u, v) for _, u, v in g.edges
                         if u not in cut and v not in cut)
        comps = sorted(map(frozenset, nx.connected_components(h)), key=min)
        if len(comps) >= 2:
            out.append((frozenset(cut), tuple(comps)))
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
        certs = list(iterate_vertex_cuts(g, k))
        assert [(c.cut, c.residual_components) for c in certs] == \
            naive_vertex_cuts(g, k), g.edges
        for c in certs:
            assert c.side_a in c.residual_components
            assert c.side_a | c.side_b == frozenset(range(g.n)) - c.cut
            assert len(c.side_a) == min(map(len, c.residual_components))


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
    for h in (g, EdgeSubset(g, members)):
        sub = h.subgraph() if isinstance(h, EdgeSubset) else h
        d = decompose(h)
        assert d.pendant_flags == naive_pendant_flags(sub, d)


# ---------------------------------------------------------------------------
# include/exclude search

def naive_min_degree_sets(g, exempt):
    """All minimum sets of loop-free edges giving every vertex outside
    `exempt` degree >= 2, by size-ordered subset scan: (size, sets) or
    (None, [])."""
    edges = [(e, u, v) for e, u, v in g.edges if u != v]
    for size in range(len(edges) + 1):
        found = []
        for combo in itertools.combinations(edges, size):
            deg = [0] * g.n
            for _, u, v in combo:
                deg[u] += 1
                deg[v] += 1
            if all(deg[v] >= 2 for v in range(g.n) if v not in exempt):
                found.append(frozenset(e for e, _, _ in combo))
        if found:
            return size, found
    return None, []


@pytest.mark.parametrize("seed", range(80))
def test_degree_search_matches_brute_force(seed):
    # n <= 7 multigraphs with parallel edges and self-loops; the exempt set
    # is empty, three vertices or random
    rng = random.Random(seed)
    n = rng.randint(1, 7)
    g = random_graph(n, rng.randint(n, min(3 * n, 11)), seed)
    exempt = {0: set(), 1: set(range(min(3, n)))}.get(
        seed % 3, {v for v in range(n) if rng.random() < 0.3})
    size, sets = naive_min_degree_sets(g, exempt)
    best, found = DegreeSearch(g, exempt, 10 ** 6, lambda inc, exc: None,
                               "test", collect_all=True).solve()
    assert best == size
    assert len(found) == len(set(found)) and set(found) == set(sets)
    best, found = DegreeSearch(g, exempt, 10 ** 6, lambda inc, exc: None,
                               "test").solve()
    assert best == size and len(found) == (size is not None)
    assert set(found) <= set(sets)


def test_degree_search_budget_raises_with_its_message():
    g = complete_graph(6)
    search = DegreeSearch(g, (), 5, lambda inc, exc: None, "tiny budget")
    with pytest.raises(BudgetExceeded, match="^tiny budget$"):
        search.solve()
    assert search.nodes == 6


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

def test_contract_preserves_edge_ids_and_makes_loops():
    g = cycle_graph(4)
    cm = contract(g, {0, 1})
    assert cm.result.n == 3
    assert cm.result.edge_ids() == {0, 1, 2, 3}
    emap = cm.result.edge_map()
    u, v = emap[0]
    assert u == v            # contracted edge became a self-loop


def test_contract_many_disjoint():
    g = cycle_graph(6)
    cm = contract_many(g, [{0, 1}, {3, 4}])
    assert cm.result.n == 4
    assert is_two_edge_connected(
        MultiGraph(cm.result.n,
                   [(e, u, v) for e, u, v in cm.result.edges if u != v]))


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
    cm = contract(g, {0, 1})
    assert cm.result.add_edge(0, 1) >= 6


# ---------------------------------------------------------------------------
# cycle search

def test_cycle_through_single_edge():
    g = cycle_graph(5)
    cyc = find_cycle_through_edges(g, {2})
    assert cyc is not None and sorted(cyc) == [0, 1, 2, 3, 4]


def test_cycle_through_two_edges_of_k4():
    g = complete_graph(4)
    emap = g.edge_map()
    cyc = find_cycle_through_edges(g, {0, 5})   # edges (0,1) and (2,3)
    assert cyc is not None
    assert {0, 5} <= set(cyc)
    # verify it is a closed walk with all-degree-2 on its support
    deg = {}
    for e in cyc:
        u, v = emap[e]
        deg[u] = deg.get(u, 0) + 1
        deg[v] = deg.get(v, 0) + 1
    assert all(d == 2 for d in deg.values())


def test_cycle_impossible_three_edges_at_one_vertex():
    g = complete_graph(4)
    # edges 0,1,2 are (0,1),(0,2),(0,3): all share vertex 0
    assert find_cycle_through_edges(g, {0, 1, 2}) is None


def test_cycle_budget_raises():
    g = petersen()          # girth 5: no cycle closes within one expansion
    with pytest.raises(BudgetExceeded):
        find_cycle_through_edges(g, {0}, budget=1)


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
    got = find_contractible_certificate(g, Fraction(5, 4), max_vertices=7)
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
    assert find_contractible_certificate(petersen(), Fraction(5, 4), 7) is None


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
