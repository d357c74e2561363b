"""Triangle-free 2-edge covers, canonical form, and canonicalization."""

import hashlib
import itertools
import json
import random

import networkx as nx
import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import complete_graph, cycle_graph, disjoint_cycles
from twoec import cover
from twoec.cover import (TwoEdgeCover, _candidate_swaps, _improving_move,
                         _objective, _triangle_component, canonicalize,
                         check_canonical, is_tf_two_edge_cover,
                         min_triangle_free_cover)
from twoec.errors import Infeasible, NotCanonical
from twoec.generate import random_2ec
from twoec.graph import DegreeSearch, MultiGraph
from twoec.oracle import exact_min_tf_cover


def random_2ec_small(n, extra, seed):
    rng = random.Random(seed)
    g = cycle_graph(n)
    for _ in range(extra):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            g.add_edge(u, v)
    return g


# ---------------------------------------------------------------------------
# predicates and classification

def test_is_tf_cover_rejects_triangle_component():
    g = disjoint_cycles([3, 4])
    assert not is_tf_two_edge_cover(g, set(g.edge_ids()))


def test_is_tf_cover_rejects_degree_deficit():
    g = cycle_graph(5)
    assert not is_tf_two_edge_cover(g, {0, 1, 2, 3})


def test_is_tf_cover_accepts_c4():
    g = cycle_graph(4)
    assert is_tf_two_edge_cover(g, set(g.edge_ids()))


def test_triangle_inside_larger_component_is_fine():
    # K4 solution containing triangles is fine: only triangle *components* ban
    g = complete_graph(4)
    assert is_tf_two_edge_cover(g, set(g.edge_ids()))


def test_classification_cycles_and_large():
    g = disjoint_cycles([4, 5, 6, 7, 8])
    h = TwoEdgeCover(g, frozenset(g.edge_ids()))
    assert h.classification() == ["C4", "C5", "C6", "C7", "Large2EC"]


def test_classification_complex():
    g = disjoint_cycles([4, 4])
    g.add_edge(0, 4)
    h = TwoEdgeCover(g, frozenset(g.edge_ids()))
    assert h.classification() == ["Complex"]


def naive_classification(g, members):
    """Kind of each component of the edge set, by smallest vertex: a bridge
    gives Complex, >= 8 edges Large2EC, a connected 2-regular component on
    4-7 vertices C_k, anything else Other."""
    emap = g.edge_map()
    gx = nx.MultiGraph()
    gx.add_nodes_from(range(g.n))
    gx.add_edges_from(emap[e] for e in members)
    out = []
    for comp in sorted(nx.connected_components(gx), key=min):
        sub = gx.subgraph(comp)
        if any(True for _ in nx.bridges(sub)):
            out.append("Complex")
        elif sub.number_of_edges() >= 8:
            out.append("Large2EC")
        elif 4 <= len(comp) <= 7 and all(d == 2 for _, d in sub.degree()):
            out.append(f"C{len(comp)}")
        else:
            out.append("Other")
    return out


def random_pieces_graph(rng):
    """Disjoint random pieces (isolated vertices, parallel pairs, paths,
    triangles, C4-C7 with or without a chord, cycles of 8-11 edges, two
    cycles joined by a bridge), then a few edges between pieces."""
    n = 0
    edges = []

    def fresh(k):
        nonlocal n
        n += k
        return list(range(n - k, n))

    def ring(vs):
        edges.extend(zip(vs, vs[1:] + vs[:1]))

    for _ in range(rng.randint(1, 6)):
        kind = rng.randrange(7)
        if kind == 0:
            fresh(1)
        elif kind == 1:
            edges.extend([tuple(fresh(2))] * 2)
        elif kind == 2:
            vs = fresh(rng.randint(2, 4))
            edges.extend(zip(vs, vs[1:]))
        elif kind in (3, 4):
            vs = fresh(3 if kind == 3 else rng.randint(4, 7))
            ring(vs)
            if rng.random() < 0.4:
                edges.append((vs[0], vs[2]))
        elif kind == 5:
            ring(fresh(rng.randint(8, 11)))
        else:
            a, b = fresh(rng.randint(3, 5)), fresh(rng.randint(3, 5))
            ring(a)
            ring(b)
            edges.append((a[0], b[0]))
    for _ in range(rng.randint(0, 2)):
        edges.append((rng.randrange(n), rng.randrange(n)))
    return MultiGraph(n, edges)


def test_classification_matches_networkx():
    for seed in range(200):
        rng = random.Random(seed)
        g = random_pieces_graph(rng)
        members = frozenset(e for e in g.edge_ids() if rng.random() < 0.95)
        h = TwoEdgeCover(g, members)
        assert h.classification() == naive_classification(g, members), seed
        assert h.replace(members) == h         # the caches take no part in ==
        # a cover built by replace reports its own kinds, not h's
        other = frozenset(e for e in g.edge_ids() if rng.random() < 0.7)
        assert h.replace(other).classification() == \
            naive_classification(g, other), seed


# ---------------------------------------------------------------------------
# minimum cover (certified path) vs independent oracle — dual-route check

@pytest.mark.parametrize("lengths", [[4], [5], [4, 4], [4, 6]])
def test_min_cover_on_disjoint_cycles(lengths):
    g = disjoint_cycles(lengths)
    h = min_triangle_free_cover(g)
    assert h.certified_minimum
    assert len(h) == sum(lengths)


@settings(max_examples=60, deadline=None)
@given(st.integers(4, 10), st.integers(0, 8), st.integers(0, 10 ** 6))
def test_min_cover_matches_oracle(n, extra, seed):
    g = random_2ec_small(n, extra, seed)
    h = min_triangle_free_cover(g)
    res = exact_min_tf_cover(g)
    assert h.certified_minimum and res.certified
    assert len(h) == res.value
    assert is_tf_two_edge_cover(g, h.members)


def test_min_cover_infeasible_low_degree():
    g = MultiGraph(3, [(0, 1), (1, 2)])
    with pytest.raises(Infeasible):
        min_triangle_free_cover(g)


def test_min_cover_golden(monkeypatch):
    # recorded before the exact cover search moved onto graph.DegreeSearch.
    # The node budgets 30 and 300 run out on most of these graphs, so the
    # record pins the fallback to the heuristic cover as well as the
    # branching order of the exact search
    rng = random.Random(5150)
    results = []
    full = cover.TF_NODE_BUDGET
    for _ in range(300):
        n = rng.randint(5, 14)
        g = random_2ec(n, seed=rng.randrange(10 ** 6))
        for budget in (30, 300, full):
            monkeypatch.setattr(cover, "TF_NODE_BUDGET", budget)
            h = min_triangle_free_cover(g)
            results.append([sorted(h.members), h.certified_minimum])
    exact = [c for _, c in results]
    assert any(exact[0::3]) and not all(exact[0::3]) and all(exact[2::3])
    assert hashlib.sha256(json.dumps(results).encode()).hexdigest() == (
        "79098f52a9069d853208d259cf4b7d779a6a0f12ac034c9b15339a83e41560bb")


def test_tf_cover_node_counts_golden():
    # the value, edge set and node count of the exact triangle-free cover
    # search on random_2ec graphs, so a change to the search kernel cannot
    # move a node of it silently
    rng = random.Random(77)
    results = []
    for _ in range(10):
        g = random_2ec(rng.randint(6, 12), seed=rng.randrange(10 ** 6))
        search = DegreeSearch(g, [2] * g.n, cover.TF_NODE_BUDGET,
                              cover._tf_completion(g), "tf")
        val, sol = search.solve()
        # the set stays wrapped in a list, as it was recorded
        results.append([val, [] if sol is None else [sorted(sol)],
                        search.nodes])
    assert hashlib.sha256(json.dumps(results).encode()).hexdigest() == (
        "198b76a0e22722df8cfef6961ce798cff4a2f9d325dcabb7b5612d9f4b270d78")


def test_heuristic_path_flagged_uncertified(monkeypatch):
    monkeypatch.setattr(cover, "TF_EXACT_MAX_N", 10)   # force the heuristic path
    g = cycle_graph(20)
    h = min_triangle_free_cover(g)
    assert not h.certified_minimum
    assert is_tf_two_edge_cover(g, h.members)


# ---------------------------------------------------------------------------
# canonical form

def test_c4_to_c7_cycles_are_canonical():
    g = disjoint_cycles([4, 5, 6, 7])
    h = TwoEdgeCover(g, frozenset(g.edge_ids()))
    assert check_canonical(h) == []


def test_pendant_block_under_6_violates():
    # two C4 blocks joined by a bridge: pendant blocks of 4 edges < 6
    g = disjoint_cycles([4, 4])
    g.add_edge(0, 4)
    h = TwoEdgeCover(g, frozenset(g.edge_ids()))
    kinds = {v.kind for v in check_canonical(h)}
    assert kinds == {"PendantBlockUnder6"}


def test_pendant_blocks_of_6_are_canonical():
    g = disjoint_cycles([6, 6])
    g.add_edge(0, 6)
    h = TwoEdgeCover(g, frozenset(g.edge_ids()))
    assert check_canonical(h) == []


def test_small_non_cycle_component_violates():
    # C4 plus a chord: 5 edges on 4 vertices, not a cycle, not >= 8 edges
    g = cycle_graph(4)
    g.add_edge(0, 2)
    h = TwoEdgeCover(g, frozenset(g.edge_ids()))
    kinds = {v.kind for v in check_canonical(h)}
    assert kinds == {"SmallNonCycleComponent"}


def test_canonicalize_removes_chord():
    g = cycle_graph(6)
    chord = g.add_edge(0, 3)
    h = TwoEdgeCover(g, frozenset(g.edge_ids()))
    out = canonicalize(g, h)
    assert chord not in out.members
    assert len(out) == 6
    assert check_canonical(out) == []


def test_canonicalize_merges_components_at_equal_size():
    # two C4s joined by enough host edges that a swap merges them into a C8
    g = disjoint_cycles([4, 4])
    cover = set(g.edge_ids())
    g.add_edge(0, 4)
    g.add_edge(1, 5)
    h = canonicalize(g, TwoEdgeCover(g, frozenset(cover)))
    assert len(h) == 8
    assert len(h.decomposition.components) == 1


@settings(max_examples=40, deadline=None)
@given(st.integers(5, 10), st.integers(2, 8), st.integers(0, 10 ** 6))
def test_canonicalize_never_grows_and_ends_canonical(n, extra, seed):
    g = random_2ec_small(n, extra, seed)
    h = min_triangle_free_cover(g)
    out = canonicalize(g, h)
    assert len(out) <= len(h)
    assert check_canonical(out) == []
    assert is_tf_two_edge_cover(g, out.members)


# ---------------------------------------------------------------------------
# canonicalization internals against independent references

def random_two_edge_cover(seed):
    """A host graph and a random 2-edge cover of it.  The host is one to
    three random cyclic parts, the first two often joined by one edge (a
    bridge of the cover), plus a few parallel edges.  The cover is every
    edge, then deletions in random order that keep every degree >= 2, each
    made with probability 0.8."""
    rng = random.Random(seed)
    g = MultiGraph(0)
    starts = []
    for i in range(rng.randrange(1, 4)):
        part = random_2ec_small(rng.randrange(3, 8), rng.randrange(0, 8),
                                seed * 3 + i)
        starts.append(g.n)
        g = MultiGraph(g.n + part.n,
                       g.edges + [(u + g.n, v + g.n) for _, u, v in part.edges])
    if len(starts) > 1 and rng.random() < 0.7:
        g.add_edge(starts[0], starts[1])
    for _ in range(rng.randrange(0, 4)):
        _, u, v = rng.choice(g.edges)
        g.add_edge(u, v)
    emap = g.edge_map()
    deg = [g.degree(v) for v in range(g.n)]
    members = set(g.edge_ids())
    for e in rng.sample(sorted(members), len(members)):
        u, v = emap[e]
        if deg[u] > 2 and deg[v] > 2 and rng.random() < 0.8:
            members.discard(e)
            deg[u] -= 1
            deg[v] -= 1
    return g, members


def nx_cover(g, members):
    h = nx.MultiGraph()
    h.add_nodes_from(range(g.n))
    for e, u, v in g.edges:
        if e in members:
            h.add_edge(u, v, key=e)
    return h


def nx_objective(g, members):
    h = nx_cover(g, members)
    comps = list(nx.connected_components(h))
    if any(len(c) == 3 and h.subgraph(c).number_of_edges() == 3 for c in comps):
        return None
    bridges = []
    for u, v, e in list(h.edges(keys=True)):
        h.remove_edge(u, v, key=e)
        if nx.number_connected_components(h) > len(comps):
            bridges.append((u, v))
        h.add_edge(u, v, key=e)
    complex_comps = [c for c in comps if any(u in c for u, _ in bridges)]
    cuts = [v for v in nx.articulation_points(nx.Graph(h))
            if not any(v in c for c in complex_comps)]
    return (len(members), len(comps), len(bridges), len(cuts))


@pytest.mark.parametrize("seed", range(40))
def test_objective_matches_networkx(seed):
    g, members = random_two_edge_cover(seed)
    assert _objective(g, members) == nx_objective(g, members)


def naive_swaps(g, members):
    """Every (F_R, F_A) of the full enumeration that passes the degree
    screen, in enumeration order."""
    emap = g.edge_map()
    deg = [0] * g.n
    for e in members:
        for x in emap[e]:
            deg[x] += 1
    comp_of = {}
    for i, c in enumerate(nx.connected_components(nx_cover(g, members))):
        for v in c:
            comp_of[v] = i
    non_members = [e for e, u, v in sorted(g.edges)
                   if e not in members and u != v]
    out = []
    for fr_size in (1, 2):
        for removed in itertools.combinations(sorted(members), fr_size):
            touched = {x for e in removed for x in emap[e]}
            pool = [e for e in non_members
                    if touched & set(emap[e])
                    or comp_of[emap[e][0]] != comp_of[emap[e][1]]]
            for fa_size in range(fr_size + 1):
                for added in itertools.combinations(pool, fa_size):
                    d = list(deg)
                    for e in removed:
                        for x in emap[e]:
                            d[x] -= 1
                    for e in added:
                        for x in emap[e]:
                            d[x] += 1
                    if min(d) >= 2:
                        out.append((removed, added))
    return out


@pytest.mark.parametrize("seed", range(40))
def test_swap_generator_matches_naive_screen(seed):
    g, members = random_two_edge_cover(seed)
    naive = naive_swaps(g, members)
    assert list(_candidate_swaps(g, members)) == naive
    assert list(_candidate_swaps(g, members, shrink_only=True)) == [
        (fr, fa) for fr, fa in naive if len(fa) < len(fr)]


def nx_triangle_components(g, members):
    """Vertex sets of the triangle components (3 vertices, 3 edges), in
    order of their smallest vertex."""
    h = nx_cover(g, members)
    return [c for c in sorted(nx.connected_components(h), key=min)
            if len(c) == 3 and h.subgraph(c).number_of_edges() == 3]


@pytest.mark.parametrize("seed", range(60))
def test_triangle_component_and_tf_cover_match_networkx(seed):
    # seeded multigraphs with parallel edges and self-loops: a triangle,
    # sometimes with doubled edges, on each block of three vertices, plus a
    # few random edges, so triangle components are common
    rng = random.Random(seed)
    n = 3 * rng.randint(1, 4)
    g = MultiGraph(n)
    for b in range(0, n, 3):
        for u, v in ((b, b + 1), (b + 1, b + 2), (b, b + 2)):
            for _ in range(rng.choice((1, 1, 1, 2))):
                g.add_edge(u, v)
        if rng.random() < 0.1:
            g.add_edge(b, b)
    for _ in range(rng.randint(0, n // 2)):
        g.add_edge(rng.randrange(n), rng.randrange(n))
    members = {e for e, _, _ in g.edges if rng.random() < 0.9}
    loop_free = {e for e in members if len(set(g.edge(e))) == 2}
    tris = nx_triangle_components(g, loop_free)
    assert _triangle_component(g, loop_free) == (tris[0] if tris else None)
    h = nx_cover(g, members)
    expect = (nx.number_of_selfloops(h) == 0
              and all(d >= 2 for _, d in h.degree())
              and not nx_triangle_components(g, members))
    assert is_tf_two_edge_cover(g, members) == expect


# ---------------------------------------------------------------------------
# canonicalize: recorded outputs and properties

def padded_cover_sample():
    """(graph, cover) pairs: the minimum TF cover of a seeded random-2ec
    graph with n 6-30, then the same cover with 1-4 random non-member edges
    added, so that the search starts above the smallest objective."""
    rng = random.Random(2718)
    out = []
    for _ in range(150):
        g = random_2ec(rng.randint(6, 30), seed=rng.randrange(10 ** 6))
        members = min_triangle_free_cover(g).members
        out.append((g, members))
        spare = sorted(g.edge_ids() - members)
        extra = rng.sample(spare, min(len(spare), rng.randint(1, 4)))
        out.append((g, members | set(extra)))
    return out


def test_canonicalize_golden():
    # recorded before canonicalize stopped at its smallest objective; a
    # search that stalls short of the canonical form is recorded by its
    # violations
    results = []
    for g, members in padded_cover_sample():
        assert is_tf_two_edge_cover(g, members)
        try:
            out = canonicalize(g, TwoEdgeCover(g, members))
        except NotCanonical as exc:
            results.append([[v.kind, list(v.witness)] for v in exc.violations])
        else:
            results.append(sorted(out.members))
    assert hashlib.sha256(json.dumps(results).encode()).hexdigest() == (
        "436f5f83799ce5ee7e4c9c10b66a3ee5e94cf442448ad84bd57e2674dcf219f8")


@pytest.mark.parametrize("seed", range(10))
def test_hamiltonian_cover_is_left_alone(seed):
    # a spanning cycle has objective (n, 1, 0, 0), which no cover beats
    rng = random.Random(seed)
    n = rng.randint(5, 30)
    g = cycle_graph(n)
    cycle = frozenset(g.edge_ids())
    for _ in range(rng.randint(0, 3 * n)):
        u, v = rng.sample(range(n), 2)
        g.add_edge(u, v)
    obj = _objective(g, cycle)
    assert obj == (n, 1, 0, 0)
    assert _improving_move(g, cycle, obj) is None
    assert canonicalize(g, TwoEdgeCover(g, cycle)).members == cycle


@settings(max_examples=60, deadline=None)
@given(st.integers(5, 14), st.integers(0, 10 ** 6), st.integers(0, 10 ** 6))
def test_canonicalize_of_random_tf_cover(n, graph_seed, cover_seed):
    # a random TF cover: every edge, then deletions in random order that
    # keep every degree >= 2
    g = random_2ec(n, seed=graph_seed)
    rng = random.Random(cover_seed)
    emap = g.edge_map()
    deg = [g.degree(v) for v in range(n)]
    members = set(g.edge_ids())
    for e in rng.sample(sorted(members), len(members)):
        u, v = emap[e]
        if deg[u] > 2 and deg[v] > 2 and rng.random() < 0.7:
            members.discard(e)
            deg[u] -= 1
            deg[v] -= 1
    assume(is_tf_two_edge_cover(g, members))
    try:
        out = canonicalize(g, TwoEdgeCover(g, members))
    except NotCanonical as exc:
        # the local search may stall on a host that is not structured (a few
        # per cent of these inputs); the pipeline turns that into a witness
        assert exc.violations
        return
    assert is_tf_two_edge_cover(g, out.members)
    assert check_canonical(out) == []
    assert len(out) <= len(members)
    assert _objective(g, out.members) <= _objective(g, members)
