"""Gluing phase: component graph, segments, make_huge, and the glue ladder."""

import hashlib
import json
from fractions import Fraction

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (cycle_graph, disjoint_cycles, from_networkx,
                      generalized_petersen)
from test_acceptance import glue_stress_cases
from twoec.cover import TwoEdgeCover, canonicalize, check_canonical
from twoec.credits import cost, cover_bridges
from twoec.errors import StructuredViolation
from twoec.glue import (glue_all, hamiltonian_path_between, make_huge,
                        segment_of)
from twoec.graph import MultiGraph, contract_many, is_two_edge_connected
from twoec.oracle import verify_2ecss
from twoec.pipeline import PipelineConfig, run_pipeline


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

def component_graph(g, h):
    return contract_many(g, h.decomposition.components)


def test_component_graph_nodes_match_components():
    g, cover = ring_of_cycles([4, 5, 6])
    h = cover_of(g, cover)
    cg = component_graph(g, h)
    assert cg.n == 3
    assert h.classification() == ["C4", "C5", "C6"]
    assert [len(vs) for vs in h.decomposition.components] == [4, 5, 6]
    # node i is component i: each link's nodes are its ends' components
    emap, comp_of = g.edge_map(), h.decomposition.component_of
    assert cg.m == 6 and all({x, y} == {comp_of[u] for u in emap[e]}
                             for e, x, y in cg.edges)


def test_component_graph_drops_self_loops():
    g, cover = ring_of_cycles([4, 4])
    cg = component_graph(g, cover_of(g, cover))
    assert all(u != v for _, u, v in cg.edges)


def test_segments_ring_is_one_nontrivial_segment():
    g, cover = ring_of_cycles([4, 4, 4, 4])
    cg = component_graph(g, cover_of(g, cover))
    assert all(segment_of(cg, v) == frozenset(range(4)) for v in range(4))


def test_segments_path_attachment_is_trivial():
    # two components joined by a doubled link: collapsed to one edge, the
    # link is a bridge, so each node is its own trivial segment
    g = disjoint_cycles([6, 6])
    g.add_edge(0, 6)
    g.add_edge(3, 9)
    cg = component_graph(g, cover_of(g, set(range(12))))
    assert cg.n == 2 and cg.m == 2
    assert [segment_of(cg, v) for v in range(2)] == [frozenset([0]), frozenset([1])]


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 8),
       st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)), max_size=16))
def test_segment_of_matches_networkx(n, pairs):
    # small multigraphs, parallel edges kept and self-loops dropped: each
    # node's segment is its 2-edge-connected class of the simple graph
    cg = MultiGraph(n, [(u % n, v % n) for u, v in pairs])
    simple = nx.Graph()
    simple.add_nodes_from(range(n))
    simple.add_edges_from((u, v) for _, u, v in cg.edges)
    for c in nx.k_edge_components(simple, 2):
        assert all(segment_of(cg, v) == frozenset(c) for v in c)


# ---------------------------------------------------------------------------
# make_huge

def test_make_huge_merges_and_bounds_delta():
    g, cover = ring_of_cycles([6, 6, 6], links=2)
    h = cover_of(g, cover)
    assert check_canonical(h) == []
    out, step = make_huge(g, h)
    assert step is not None
    assert step.cost_delta <= 3
    comps = out.decomposition.components
    assert len(comps) == 1 or any(len(vs) >= 10 for vs in comps)


def test_make_huge_adds_a_second_cycle():
    # the shortest first cycle is a parallel pair: it merges two C4s into 8
    # vertices, so a second cycle through the merged node is needed
    g, cover = ring_of_cycles([4, 4, 4], links=2)
    h = cover_of(g, cover)
    out, step = make_huge(g, h)
    assert step.kind == "MakeHuge" and step.cost_delta == 3
    assert [len(vs) for vs in out.decomposition.components] == [12]
    assert verify_2ecss(g, out.members)


def test_make_huge_noop_when_huge_exists():
    g, cover = ring_of_cycles([10, 4], links=3)
    h = cover_of(g, cover)
    out, step = make_huge(g, h)
    assert step is None and out.members == h.members


# ---------------------------------------------------------------------------
# glue ladder

def test_hamiltonian_path_takes_the_smaller_parallel_id():
    # the path 0-1-2-3 with 1-2 doubled, the lower id added last
    g = MultiGraph(4, [(0, 0, 1), (5, 1, 2), (2, 1, 2), (3, 2, 3)])
    assert hamiltonian_path_between(g, 0, 3) == [0, 2, 3]


def test_hamiltonian_path_absent_between_opposite_c4_vertices():
    assert hamiltonian_path_between(cycle_graph(4), 0, 2) is None


@pytest.mark.parametrize("length,links,removed", [
    (4, [(0, 10), (2, 11), (4, 12)], 10),
    # the first pair of matched ends, (10, 12), has no Hamiltonian path in
    # the C4, so the next, (10, 13), removes edge 13-10
    (4, [(0, 10), (3, 12), (6, 13)], 13),
    (5, [(0, 10), (3, 12), (6, 14)], 14),
], ids=["C4", "C4-opposite-first-pair", "C5"])
def test_trivial_glue_c4_neighbor(length, links, removed):
    # C10 plus a C4 or C5 with a 3-matching between them: the C4/C5 is
    # replaced by the Hamiltonian path between the first pair of matched
    # ends that has one, here two adjacent ends
    g = disjoint_cycles([10, length])
    cover = set(g.edge_ids())
    for u, v in links:
        g.add_edge(u, v)
    final, [step] = glue_all(g, cover_of(g, cover))
    assert step.kind == "TrivialSegmentGlue" and step.removed == {removed}
    assert set(g.edge_map()[removed]) <= {v for _, v in links}
    assert step.cost_delta <= 0
    assert len(final.decomposition.components) == 1
    assert verify_2ecss(g, final.members)


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
    # the C4 is eaten along a cycle: only that rung removes edges
    assert any(s.kind == "NonTrivialSegmentGlue" and s.removed for s in steps)


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
    assert any(s.kind == "NonTrivialSegmentGlue" and s.removed for s in steps)


def test_c4_rung_closes_a_cycle_on_a_direct_link_to_the_huge_node():
    # huge C10, a C4 and a C6 in a triangle of single links; the C4's first
    # link runs straight to the C10, so the cycle needs one fan path only,
    # from the C10 to the C6.  The C4 drops its edge 10-11 for the path
    # 10-13-12-11 between the two link ends
    g = disjoint_cycles([10, 4, 6])
    cover = set(g.edge_ids())
    direct = g.add_edge(0, 10)
    to_c6 = g.add_edge(11, 14)
    c6_to_huge = g.add_edge(17, 5)
    h = cover_of(g, cover)
    assert segment_of(component_graph(g, h), 0) == frozenset(range(3))
    final, steps = glue_all(g, h)
    [step] = steps
    assert step.kind == "NonTrivialSegmentGlue"
    assert {direct, to_c6, c6_to_huge} <= step.added
    assert step.removed == {10} and step.cost_delta == Fraction(-1, 2)
    assert len(final.members) == len(cover) + 2
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


def test_trivial_glue_raises_the_last_missing_matching():
    # C10 is huge; the C8 (edges from C10 vertex 2 only) has a 1-matching
    # and each C5 a 2-matching, so no neighbour glues.  The ladder raises
    # the violation of the last neighbour without a 3-matching, not the C8's
    # "no valid trivial glue"
    g = disjoint_cycles([10, 8, 5, 5])
    cover = set(g.edge_ids())
    for u, v in [(2, 10), (2, 14), (0, 18), (4, 20), (6, 23), (8, 25)]:
        g.add_edge(u, v)
    with pytest.raises(StructuredViolation) as exc_info:
        glue_all(g, cover_of(g, cover))
    assert str(exc_info.value) == "no 3-matching between components 3 and 0"
    assert exc_info.value.edges == frozenset(range(23, 28))


def test_glue_single_component_is_noop():
    g = cycle_graph(12)
    h = cover_of(g, set(g.edge_ids()))
    final, steps = glue_all(g, h)
    assert steps == [] and final.members == h.members


@pytest.mark.parametrize("n,k", [(14, 3), (14, 5), (15, 6), (18, 6), (19, 3),
                                 (20, 3), (24, 5), (26, 3)])
def test_nontrivial_segment_cycle_skips_parallel_links(n, k):
    # the huge node's segment has parallel component-graph edges; the cycle
    # of >= 3 nodes through it must not stop at the 2-cycle they close
    g = generalized_petersen(n, k)
    rep = run_pipeline(g, PipelineConfig(oracle_mode="off"))
    assert verify_2ecss(g, set(rep["solution"]["edges"]))
    kinds = [s["kind"] for leaf in rep["leaves"] for s in leaf["glue_steps"]]
    assert "NonTrivialSegmentGlue" in kinds


def test_glue_golden():
    # recorded before segments moved onto graph.two_ec_classes: the steps
    # (kind, added, removed, cost delta) and the final members of glue runs
    # that reach every step kind.  Re-recorded when the typed C2(iii) step
    # came to pass over candidates that miss its accounting bound:
    # random_regular_graph(3, 34, seed=1) then takes 3-cut-C2-iii in place
    # of 3-cut-both-large, at the same size 36 and with one glue step fewer.
    # Re-recorded when every trivial C4/C5 step came to keep a Hamiltonian
    # path like a C6/C7 step: the four such steps (the C4 stress case,
    # GP(13, 2) and both random regular graphs) list the kept path edges in
    # `added`; every removed set, cost delta and final member set is as before
    results = []
    for g, cover in glue_stress_cases():
        h = cover_bridges(g, canonicalize(g, TwoEdgeCover(g, frozenset(cover))))
        final, steps = glue_all(g, h)
        results.append([[[s.kind, sorted(s.added), sorted(s.removed),
                          str(s.cost_delta)] for s in steps],
                        sorted(final.members)])
    hosts = [generalized_petersen(n, k) for n, k in
             [(10, 2), (13, 2), (16, 2), (14, 3), (14, 5), (15, 6), (18, 6),
              (19, 3), (20, 3), (24, 5), (26, 3)]]
    hosts += [from_networkx(nx.random_regular_graph(3, 30, seed=0)),
              from_networkx(nx.random_regular_graph(3, 34, seed=1)),
              from_networkx(nx.pappus_graph()),
              from_networkx(nx.desargues_graph()),
              from_networkx(nx.moebius_kantor_graph())]
    for g in hosts:
        rep = run_pipeline(g, PipelineConfig(oracle_mode="off"))
        results.append([[[s["kind"], s["added"], s["removed"], s["cost_delta"]]
                         for leaf in rep["leaves"] for s in leaf["glue_steps"]],
                        rep["solution"]["edges"]])
    kinds = {s[0] for steps, _ in results for s in steps}
    assert kinds == {"MakeHuge", "TrivialSegmentGlue", "NonTrivialSegmentGlue"}
    assert hashlib.sha256(json.dumps(results).encode()).hexdigest() == (
        "60673738e4971efa8d9b0cc465a51a9623713a2899fea2c9f75f8e9f06d8f527")
