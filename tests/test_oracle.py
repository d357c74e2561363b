"""Exact oracles: values frozen against in-test naive enumeration."""

import random

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (complete_graph, cycle_graph, disjoint_cycles,
                      naive_min_2ecss, naive_min_tf_cover, petersen)
from twoec.errors import Infeasible
from twoec.graph import MultiGraph, is_two_edge_connected
from twoec.oracle import (exact_min_2ecss, exact_min_tf_cover,
                          min_edges_inside, verify_2ecss)


def random_2ec_small(n, extra, seed):
    """Cycle plus `extra` random chords: always 2EC, cheap to build."""
    rng = random.Random(seed)
    g = cycle_graph(n)
    for _ in range(extra):
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u != v:
            g.add_edge(u, v)
    return g


# ---------------------------------------------------------------------------
# verify_2ecss

def test_verify_cycle_itself_true():
    g = cycle_graph(5)
    assert verify_2ecss(g, set(g.edge_ids()))


def test_verify_cycle_minus_edge_false():
    g = cycle_graph(5)
    assert not verify_2ecss(g, set(g.edge_ids()) - {0})


def test_verify_nonspanning_triangle_false():
    g = complete_graph(4)
    # triangle on {0,1,2}: edges (0,1),(0,2),(1,2) = ids 0,1,3
    assert not verify_2ecss(g, {0, 1, 3})


def test_verify_rejects_foreign_edge_ids():
    g = cycle_graph(4)
    assert not verify_2ecss(g, {0, 1, 2, 99})


# ---------------------------------------------------------------------------
# exact_min_2ecss

@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_min_2ecss_cycle_is_n(n):
    res = exact_min_2ecss(cycle_graph(n))
    assert res.value == n and res.certified


def test_min_2ecss_k4_is_4():
    res = exact_min_2ecss(complete_graph(4))
    assert res.value == 4 == naive_min_2ecss(complete_graph(4))
    assert verify_2ecss(complete_graph(4), res.witness.members)


def test_min_2ecss_petersen_matches_naive():
    g = petersen()
    res = exact_min_2ecss(g)
    assert res.certified
    assert res.value == naive_min_2ecss(g)


def test_min_2ecss_infeasible_on_path():
    g = MultiGraph(3, [(0, 1), (1, 2)])
    with pytest.raises(Infeasible):
        exact_min_2ecss(g)


def test_min_2ecss_budget_exhaustion_returns_none_or_uncertified():
    g = complete_graph(8)
    res = exact_min_2ecss(g, budget=5)
    assert res is None or not res.certified


@settings(max_examples=40, deadline=None)
@given(st.integers(4, 8), st.integers(0, 6), st.integers(0, 10 ** 6))
def test_min_2ecss_at_least_n_and_witness_verifies(n, extra, seed):
    g = random_2ec_small(n, extra, seed)
    res = exact_min_2ecss(g)
    assert res.certified
    assert res.value >= g.n
    assert verify_2ecss(g, res.witness.members)
    assert len(res.witness.members) == res.value


# ---------------------------------------------------------------------------
# exact_min_tf_cover

def test_min_tf_cover_c4_is_4():
    assert exact_min_tf_cover(cycle_graph(4)).value == 4


def test_min_tf_cover_k4_matches_naive():
    g = complete_graph(4)
    assert exact_min_tf_cover(g).value == naive_min_tf_cover(g) == 4


def test_min_tf_cover_two_disjoint_c4s_is_8():
    g = disjoint_cycles([4, 4])
    assert exact_min_tf_cover(g).value == 8


def test_min_tf_cover_k3_infeasible():
    # only spanning 2-edge cover of K3 is the triangle itself, which is banned
    with pytest.raises(Infeasible):
        exact_min_tf_cover(complete_graph(3))


@settings(max_examples=40, deadline=None)
@given(st.integers(4, 8), st.integers(0, 6), st.integers(0, 10 ** 6))
def test_tf_cover_at_most_min_2ecss(n, extra, seed):
    g = random_2ec_small(n, extra, seed)
    tf = exact_min_tf_cover(g)
    full = exact_min_2ecss(g)
    assert tf.value <= full.value


@settings(max_examples=25, deadline=None)
@given(st.integers(5, 8), st.integers(1, 6), st.integers(0, 10 ** 6))
def test_tf_cover_matches_naive(n, extra, seed):
    g = random_2ec_small(n, extra, seed)
    assert exact_min_tf_cover(g).value == naive_min_tf_cover(g)


# ---------------------------------------------------------------------------
# min_edges_inside

def test_min_edges_inside_of_cycle_arc():
    g = cycle_graph(6)
    # any 2-ECSS of C6 is C6 itself: all 3 edges inside {0,1,2,3} are used
    assert min_edges_inside(g, {0, 1, 2, 3}) == 3


def test_min_edges_inside_with_bypass():
    g = cycle_graph(6)
    g.add_edge(0, 3)
    # the chord lets a solution choose either side; still needs >= 2 inside
    m = min_edges_inside(g, {0, 1, 2, 3})
    assert m is not None and m >= 2


def test_min_edges_inside_too_large_returns_none():
    g = complete_graph(9)
    assert min_edges_inside(g, set(range(9)), max_inside=5) is None


# ---------------------------------------------------------------------------
# cross-implementation agreement between independent code paths

@settings(max_examples=60, deadline=None)
@given(st.integers(3, 8), st.integers(0, 8), st.integers(0, 10 ** 6))
def test_verify_agrees_with_graph_core(n, extra, seed):
    rng = random.Random(seed)
    g = MultiGraph(n)
    for _ in range(n + extra):
        g.add_edge(rng.randrange(n), rng.randrange(n))
    members = {e for e, _, _ in g.edges if rng.random() < 0.8}
    # is_two_edge_connected on the full-vertex-set subgraph already encodes
    # the spanning requirement: isolated vertices are their own components
    sub = MultiGraph(g.n, [(e, u, v) for e, u, v in g.edges if e in members])
    assert verify_2ecss(g, members) == is_two_edge_connected(sub)


def networkx_is_2ecss(g, members):
    """Connected on all n vertices, and still connected after removing each
    non-loop member edge by its key, on an nx.MultiGraph."""
    h = nx.MultiGraph()
    h.add_nodes_from(range(g.n))
    emap = g.edge_map()
    h.add_edges_from((*emap[e], e) for e in members)
    if not nx.is_connected(h):
        return False
    for e in members:
        u, v = emap[e]
        if u != v:
            h.remove_edge(u, v, key=e)
            connected = nx.is_connected(h)
            h.add_edge(u, v, key=e)
            if not connected:
                return False
    return True


def test_verify_matches_networkx_on_random_subsets():
    # random multigraphs with self-loops and parallels; each member set is a
    # random subset, so most are non-spanning or disconnected
    rng = random.Random(2)
    verdicts = []
    for _ in range(400):
        n = rng.randint(1, 9)
        g = MultiGraph(n)
        for _ in range(rng.randint(0, 3 * n)):
            u = rng.randrange(n)
            g.add_edge(u, u if rng.random() < 0.1 else rng.randrange(n))
        keep = rng.uniform(0.5, 1)
        members = {e for e, _, _ in g.edges if rng.random() < keep}
        verdict = verify_2ecss(g, members)
        assert verdict == networkx_is_2ecss(g, members), (g.edges, members)
        verdicts.append((n >= 3, verdict))
    assert (True, True) in verdicts and (True, False) in verdicts
