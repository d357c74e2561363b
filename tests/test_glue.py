"""Gluing phase: component graph, segments, make_huge, and the glue ladder."""

import itertools
from fractions import Fraction

import pytest

from conftest import cycle_graph, disjoint_cycles
from twoec.cover import TwoEdgeCover, check_canonical
from twoec.credits import cost
from twoec.errors import StructuredViolation
from twoec.glue import (_nine_edge_patch, build_component_graph,
                        compute_segments, glue_all, make_huge)
from twoec.graph import MultiGraph, induced_subgraph, is_two_edge_connected
from twoec.oracle import verify_2ecss


def cover_of(g, edge_ids):
    return TwoEdgeCover(g, frozenset(edge_ids))


def ring_of_cycles(lengths, links=2, spread=True):
    """Disjoint cycles in a ring; consecutive pair i,i+1 joined by `links`
    host edges at distinct, adjacent-ish attachment vertices."""
    g = disjoint_cycles(lengths)
    cover = set(g.edge_ids())
    offsets = []
    base = 0
    for length in lengths:
        offsets.append(base)
        base += length
    k = len(lengths)
    for i in range(k):
        a, b = offsets[i], offsets[(i + 1) % k]
        la, lb = lengths[i], lengths[(i + 1) % k]
        for j in range(links):
            g.add_edge(a + (j % la), b + (j % lb))
    return g, cover


# ---------------------------------------------------------------------------
# component graph and segments

def test_component_graph_nodes_match_components():
    g, cover = ring_of_cycles([4, 5, 6])
    h = cover_of(g, cover)
    cg = build_component_graph(g, h)
    assert cg.n == 3
    assert cg.node_class == ["C4", "C5", "C6"]
    assert [len(vs) for vs in cg.node_vertices] == [4, 5, 6]


def test_component_graph_drops_self_loops():
    g, cover = ring_of_cycles([4, 4])
    cg = build_component_graph(g, cover_of(g, cover))
    assert all(u != v for _, u, v in cg.contracted.edges)


def test_segments_ring_is_one_nontrivial_segment():
    g, cover = ring_of_cycles([4, 4, 4, 4])
    cg = build_component_graph(g, cover_of(g, cover))
    segs = compute_segments(cg)
    nontrivial = [s for s in segs if not s.trivial]
    assert len(nontrivial) == 1
    assert nontrivial[0].nodes == frozenset(range(4))


def test_segments_path_attachment_is_trivial():
    # two components joined by a doubled link: no 3-node biconnected piece
    g = disjoint_cycles([6, 6])
    g.add_edge(0, 6)
    g.add_edge(3, 9)
    cg = build_component_graph(g, cover_of(g, set(range(12))))
    segs = compute_segments(cg)
    assert all(s.trivial for s in segs) or all(len(s.nodes) < 3 for s in segs)


# ---------------------------------------------------------------------------
# make_huge

def test_make_huge_merges_and_bounds_delta():
    g, cover = ring_of_cycles([6, 6, 6], links=2)
    h = cover_of(g, cover)
    assert check_canonical(h) == []
    out, step = make_huge(g, h)
    assert step is not None
    assert step.cost_delta <= 3
    cg = build_component_graph(g, out)
    assert cg.n == 1 or any(len(vs) >= 10 for vs in cg.node_vertices)


def test_make_huge_noop_when_huge_exists():
    g, cover = ring_of_cycles([10, 4], links=3)
    h = cover_of(g, cover)
    out, step = make_huge(g, h)
    assert step is None and out.members == h.members


# ---------------------------------------------------------------------------
# glue ladder

def huge_plus_c4():
    """C10 component plus a C4 neighbor with a 3-matching between them."""
    g = disjoint_cycles([10, 4])
    cover = set(g.edge_ids())
    g.add_edge(0, 10)
    g.add_edge(2, 11)
    g.add_edge(4, 12)
    return g, cover


def test_trivial_glue_c4_neighbor():
    g, cover = huge_plus_c4()
    h = cover_of(g, cover)
    final, steps = glue_all(g, h)
    assert len(final.decomposition.components) == 1
    assert verify_2ecss(g, final.members)
    assert all(s.cost_delta <= 0 for s in steps)


def test_trivial_glue_large_neighbor_two_matching_edges():
    g = disjoint_cycles([10, 8])
    cover = set(g.edge_ids())
    g.add_edge(0, 10)
    g.add_edge(5, 14)
    h = cover_of(g, cover)
    final, steps = glue_all(g, h)
    assert len(final.decomposition.components) == 1
    assert len(final.members) == 20          # both cycles + 2 matching edges
    assert verify_2ecss(g, final.members)


def test_trivial_glue_c6_neighbor_hamiltonian_path():
    g = disjoint_cycles([10, 6])
    cover = set(g.edge_ids())
    # 3-matching into the C6 at vertices 10, 11, 13
    g.add_edge(0, 10)
    g.add_edge(3, 11)
    g.add_edge(6, 13)
    h = cover_of(g, cover)
    final, steps = glue_all(g, h)
    assert len(final.decomposition.components) == 1
    assert verify_2ecss(g, final.members)
    assert all(s.cost_delta <= 0 for s in steps)


def test_glue_all_full_ladder_ring():
    g, cover = ring_of_cycles([6, 6, 6, 4], links=3)
    h = cover_of(g, cover)
    cost0 = cost(h)
    final, steps = glue_all(g, h)
    assert len(final.decomposition.components) == 1
    assert verify_2ecss(g, final.members)
    positives = [s for s in steps if s.cost_delta > 0]
    assert len(positives) <= 1
    assert all(s.cost_delta <= 3 for s in positives)
    for s in steps:
        assert s.components_after < s.components_before
    assert Fraction(len(final.members)) <= cost0 + 3 + 1


def test_sparse_c5_ring_still_glues():
    # only 2-matchings between neighbors, but parallel component-graph edges
    # admit 2-cycles, so the non-trivial-segment ladder still succeeds
    g = disjoint_cycles([5, 5, 5, 5])
    cover = set(g.edge_ids())
    for c in range(4):
        ba, bb = 5 * c, 5 * ((c + 1) % 4)
        g.add_edge(ba, bb)
        g.add_edge(ba + 2, bb + 3)
    final, steps = glue_all(g, cover_of(g, cover))
    assert len(final.decomposition.components) == 1
    assert verify_2ecss(g, final.members)


def test_glue_reports_violation_without_three_matching():
    # huge C10 plus a C5 neighbor attached by only a 2-matching: the trivial
    # glue ladder needs a 3-matching and must report a structured-graph
    # violation carrying a usable witness
    g = disjoint_cycles([10, 5])
    cover = set(g.edge_ids())
    g.add_edge(0, 10)
    g.add_edge(4, 12)
    h = cover_of(g, cover)
    with pytest.raises(StructuredViolation) as exc_info:
        glue_all(g, h)
    witness = exc_info.value.edges
    assert witness
    # witness must be usable as a contraction step: a 2EC edge set
    emap = g.edge_map()
    vs = sorted({x for e in witness for x in emap[e]})
    vmap = {v: i for i, v in enumerate(vs)}
    sub = MultiGraph(len(vs))
    for e in witness:
        u, v = emap[e]
        sub.add_edge(vmap[u], vmap[v], e)
    assert is_two_edge_connected(sub)


def test_glue_single_component_is_noop():
    g = cycle_graph(12)
    h = cover_of(g, set(g.edge_ids()))
    final, steps = glue_all(g, h)
    assert steps == [] and final.members == h.members


# ---------------------------------------------------------------------------
# the 9-edge replacement of outcome (b)

def c5_c4_pair(chords):
    """C5 on 0-4 and C4 on 5-8 joined by `chords`; vertex 9 stands for the
    rest of the host, attached where the virtual u-v edge goes."""
    g = MultiGraph(10)
    for i in range(5):
        g.add_edge(i, (i + 1) % 5)
    for i in range(4):
        g.add_edge(5 + i, 5 + (i + 1) % 4)
    for u, v in chords:
        g.add_edge(u, v)
    g.add_edge(1, 9)
    g.add_edge(4, 9)
    return g


def brute_force_patch_size(sub, virtual):
    edges = sorted(e for e, _, _ in sub.edges if e != virtual)
    for k in range(len(edges) + 1):
        for combo in itertools.combinations(edges, k):
            if verify_2ecss(sub, set(combo) | {virtual}):
                return k
    return None


def test_nine_edge_patch_is_a_minimum_completion():
    # 1-0-5-8-7-6-2-3-4 is a Hamiltonian path of the pair, so 8 edges
    # close it with the virtual 1-4 edge; the chord 1-3 is a distraction
    g = c5_c4_pair([(0, 5), (6, 2), (3, 8), (1, 3)])
    comp_a, comp_d = {0, 1, 2, 3, 4}, {5, 6, 7, 8}
    f = _nine_edge_patch(g, comp_a, comp_d, 1, 4)
    assert f is not None and len(f) <= 9
    sub, vmap = induced_subgraph(g, comp_a | comp_d)
    assert f <= {e for e, _, _ in sub.edges}
    virtual = sub.add_edge(vmap[1], vmap[4])
    assert verify_2ecss(sub, f | {virtual})
    assert len(f) == brute_force_patch_size(sub, virtual) == 8


def test_nine_edge_patch_none_without_completion():
    # a single chord between the cycles leaves it a bridge
    g = c5_c4_pair([(0, 5)])
    assert _nine_edge_patch(g, {0, 1, 2, 3, 4}, {5, 6, 7, 8}, 1, 4) is None
