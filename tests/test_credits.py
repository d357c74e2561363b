"""Credit values, the cost bound, and the bridge-covering contract.

Frozen credit values below follow the accounting scheme: a cycle component
C_i carries credit i/4; a 2EC component with >= 8 edges carries 2; a complex
component carries 1 plus 1 per block plus 1/4 per bridge.
"""

import hashlib
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import cycle_graph, disjoint_cycles
from twoec.cover import (TwoEdgeCover, canonicalize, check_canonical,
                         is_tf_two_edge_cover, min_triangle_free_cover)
from twoec.credits import (assert_cost_bound, cost, cover_bridges,
                           init_credits)
from twoec.errors import NotCanonical, Stuck
from twoec.graph import MultiGraph


def cover_of_whole(g):
    return TwoEdgeCover(g, frozenset(g.edge_ids()))


# ---------------------------------------------------------------------------
# credit values

def test_c5_credit_and_cost():
    h = cover_of_whole(cycle_graph(5))
    credit = init_credits(h)
    assert credit == Fraction(5, 4)
    assert cost(h, credit) == Fraction(25, 4)


def test_c4_cost_is_5():
    h = cover_of_whole(cycle_graph(4))
    assert cost(h) == 5


def test_large_component_credit_2_cost_11():
    h = cover_of_whole(cycle_graph(9))
    credit = init_credits(h)
    assert credit == 2
    assert cost(h, credit) == 11


def test_complex_two_pendant_blocks_cost():
    # two 6-edge blocks joined by one bridge: credit 1 + 2*1 + 1/4 = 13/4,
    # cost = 13 + 13/4 = 65/4
    g = disjoint_cycles([6, 6])
    g.add_edge(0, 6)
    h = cover_of_whole(g)
    credit = init_credits(h)
    assert credit == Fraction(13, 4)
    assert cost(h, credit) == Fraction(65, 4)


def test_mixed_components_are_additive():
    g = disjoint_cycles([4, 5, 8])
    h = cover_of_whole(g)
    assert init_credits(h) == Fraction(4 + 5 + 8, 4)


def test_init_credits_requires_canonical():
    g = cycle_graph(4)
    g.add_edge(0, 2)
    with pytest.raises(NotCanonical):
        init_credits(cover_of_whole(g))


# ---------------------------------------------------------------------------
# the cost bound

@pytest.mark.parametrize("lengths", [[4], [5], [6], [7], [8], [4, 7], [5, 5, 5]])
def test_cost_bound_on_cycle_covers(lengths):
    g = disjoint_cycles(lengths)
    assert_cost_bound(cover_of_whole(g))


def test_cost_bound_exact_fraction():
    h = cover_of_whole(cycle_graph(4))
    # C4 meets the bound with equality: 5 == (5/4)*4
    assert cost(h) == Fraction(5, 4) * 4


@settings(max_examples=40, deadline=None)
@given(st.integers(5, 11), st.integers(1, 8), st.integers(0, 10 ** 6))
def test_cost_bound_on_canonicalized_random_covers(n, extra, seed):
    rng = random.Random(seed)
    g = cycle_graph(n)
    for _ in range(extra):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            g.add_edge(u, v)
    h = canonicalize(g, min_triangle_free_cover(g))
    assert_cost_bound(h)


# ---------------------------------------------------------------------------
# bridge covering

def bridged_host():
    """Host whose canonical cover has one bridge joining two 6-cycles, and a
    parallel ear that can cover it."""
    g = disjoint_cycles([6, 6])
    bridge = g.add_edge(0, 6)
    g.add_edge(3, 9)           # ear edge: with the bridge forms a cover cycle
    cover = frozenset(set(g.edge_ids()) - {g.edges[-1][0]})
    return g, TwoEdgeCover(g, cover), bridge


def test_cover_bridges_removes_the_bridge():
    g, h, bridge = bridged_host()
    assert len(h.decomposition.bridges) == 1
    out, credit = cover_bridges(g, h)
    assert len(out.decomposition.bridges) == 0
    assert cost(out, credit) == cost(out)


def test_cover_bridges_contract_monotone():
    g, h, _ = bridged_host()
    history = []
    out, _ = cover_bridges(g, h, observer=lambda b, c: history.append((b, c)))
    bridges = [b for b, _ in history]
    costs = [c for _, c in history]
    assert bridges == sorted(bridges, reverse=True)
    assert len(set(bridges)) == len(bridges)      # strictly decreasing
    assert all(c2 <= c1 for c1, c2 in zip(costs, costs[1:]))


def test_cover_bridges_noop_when_bridgeless():
    g = cycle_graph(6)
    h = cover_of_whole(g)
    out, _ = cover_bridges(g, h)
    assert out.members == h.members


def test_cover_bridges_longer_bridge_path():
    # three 6-cycles chained by two bridges, with ear edges across
    g = disjoint_cycles([6, 6, 6])
    b1 = g.add_edge(0, 6)
    b2 = g.add_edge(6, 12)
    g.add_edge(3, 15)          # long ear spanning the whole chain
    cover = frozenset(set(g.edge_ids()) - {g.edges[-1][0]})
    h = TwoEdgeCover(g, cover)
    assert len(h.decomposition.bridges) == 2
    out, credit = cover_bridges(g, h)
    assert len(out.decomposition.bridges) == 0
    assert cost(out, credit) <= cost(h)


def bridged_cover_sample():
    """(host, cover) pairs: 2-4 cycles of 4-8 vertices chained by bridges,
    0-2 extra vertices each hung on two cover vertices, all of that the
    cover, plus 1-6 random non-cover host edges.  A cover is kept when it is
    triangle-free, canonical and has a bridge."""
    out = []
    for seed in range(1500):
        rng = random.Random(seed)
        edges, cycles, n = [], [], 0
        for _ in range(rng.randint(2, 4)):
            k = rng.randint(4, 8)
            cycles.append(range(n, n + k))
            edges += [(n + i, n + (i + 1) % k) for i in range(k)]
            n += k
        for a, b in zip(cycles, cycles[1:]):
            edges.append((rng.choice(a), rng.choice(b)))
        for _ in range(rng.randint(0, 2)):
            edges += [(n, x) for x in rng.sample(range(n), 2)]
            n += 1
        g = MultiGraph(n, edges)
        for _ in range(rng.randint(1, 6)):
            g.add_edge(*rng.sample(range(n), 2))
        h = TwoEdgeCover(g, frozenset(range(len(edges))))
        if (is_tf_two_edge_cover(g, h.members) and not check_canonical(h)
                and h.decomposition.bridges):
            out.append((g, h))
    return out


def test_cover_bridges_golden():
    # recorded before the move test moved to cover.swap: the final members,
    # credit and observer history of each run, or Stuck; the applied moves
    # add up to 4 edges and remove up to 2
    results = []
    for g, h in bridged_cover_sample():
        history = []
        try:
            out, credit = cover_bridges(
                g, h, observer=lambda b, c: history.append([b, str(c)]))
        except Stuck:
            results.append("Stuck")
        else:
            results.append([sorted(out.members), str(credit), history])
    assert len(results) == 506 and results.count("Stuck") == 117
    assert hashlib.sha256(json.dumps(results).encode()).hexdigest() == (
        "4da9e7e06ecf9e489dadf3e70382b3748432c418da9f76588e24a2357012e765")
