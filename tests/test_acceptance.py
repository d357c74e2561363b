"""Acceptance criteria, one test per criterion, each emitting a single
PASS/FAIL line to the terminal.

Tolerances are pinned in the assertions: criteria 1, 4, 5, 6, 7 demand zero
violations in exact arithmetic; criterion 2 and 3 demand exact equality with
the oracles; criterion 8 uses the 1.5 safety-rail ratio; criterion 9 demands
byte-identical serialized reports.
"""

import functools
import hashlib
import json
import random
from fractions import Fraction

import pytest

from conftest import generalized_petersen
from twoec.cover import TwoEdgeCover, canonicalize, min_triangle_free_cover
from twoec.credits import cost as cover_cost, cover_bridges
from twoec.generate import cycle_ring, glued_cliques, random_2ec, structured_random
from twoec.glue import glue_all
from twoec.graph import (MultiGraph, connected_components, find_vertex_cut,
                         iterate_vertex_cuts, max_matching_across)
from twoec.oracle import exact_min_2ecss, exact_min_tf_cover, verify_2ecss
from twoec.pipeline import PipelineConfig, run_pipeline, serialize_report

RATIO_RAIL = 1.5                     # criterion 8 safety rail
COST_FACTOR = Fraction(5, 4)         # criterion 4, exact arithmetic


def emit(capsys, line):
    with capsys.disabled():
        print(line)


# ---------------------------------------------------------------------------
# shared corpus (criterion 1 runs it; criteria 4-6 consume the reports)

def build_corpus():
    """>= 500 2EC instances across the three required families."""
    corpus = []
    for n in range(6, 17):
        for seed in range(20):
            corpus.append((f"random-2ec/{n}/{seed}",
                           random_2ec(n, None, seed * 977 + n)))
    for n in range(17, 29):
        for seed in range(6):
            corpus.append((f"random-2ec/{n}/{seed}",
                           random_2ec(n, None, seed * 977 + n)))
    for n in range(29, 37):
        for seed in range(3):
            corpus.append((f"random-2ec/{n}/{seed}",
                           random_2ec(n, None, seed * 977 + n)))
    for n in range(37, 41):
        for seed in range(2):
            corpus.append((f"random-2ec/{n}/{seed}",
                           random_2ec(n, None, seed * 977 + n)))
    for k in range(2, 9):
        for cyclen in (4, 5, 6):
            for seed in range(10):
                corpus.append((f"cycle-ring/{k}x{cyclen}/{seed}",
                               cycle_ring(k, cyclen, seed)))
    for a, b, s in [(8, 8, 3), (9, 9, 3), (10, 10, 3), (10, 12, 3),
                    (8, 12, 3), (9, 11, 3), (10, 10, 4), (9, 9, 4),
                    (11, 11, 3), (8, 10, 3), (12, 10, 3), (11, 9, 3)]:
        corpus.append((f"glued-cliques/{a}-{b}-{s}", glued_cliques(a, b, s)))
    return corpus


@pytest.fixture(scope="session")
def corpus_reports():
    cfg = PipelineConfig(oracle_mode="off")
    reports = []
    failures = []
    corpus = build_corpus()
    for name, g in corpus:
        try:
            rep = run_pipeline(g, cfg)
        except Exception as exc:          # any error is a criterion-1 failure
            failures.append((name, repr(exc)))
            continue
        if not verify_2ecss(g, set(rep["solution"]["edges"])):
            failures.append((name, "output failed verification"))
            continue
        reports.append((name, rep))
    return corpus, reports, failures


def test_criterion_1_feasibility_universal(corpus_reports, capsys):
    corpus, reports, failures = corpus_reports
    ok = len(corpus) >= 500 and not failures
    emit(capsys, f"CRITERION 1 {'PASS' if ok else 'FAIL'}: "
                 f"{len(reports)}/{len(corpus)} instances feasible and "
                 f"verified, {len(failures)} failures (tolerance: 0, "
                 f"corpus >= 500)")
    assert len(corpus) >= 500
    assert failures == []


def test_criterion_2_exactness_under_guard(capsys):
    # the optimum comes from the reference oracle, not from the report,
    # whose oracle block reuses the pipeline's own exact base case
    cfg = PipelineConfig(oracle_mode="off", enumeration_budget=12)
    assert cfg.epsilon == Fraction(1, 24)
    count = 0
    mismatches = []
    for n in range(4, 13):
        for seed in range(23):
            g = random_2ec(n, None, seed * 131 + n)
            rep = run_pipeline(g, cfg)
            res = exact_min_2ecss(g)
            opt = res.value if res is not None and res.certified else None
            count += 1
            if opt is None or rep["solution"]["size"] != opt:
                mismatches.append((n, seed, rep["solution"]["size"], opt))
    ok = count >= 200 and not mismatches
    emit(capsys, f"CRITERION 2 {'PASS' if ok else 'FAIL'}: {count} instances "
                 f"n<=12, pipeline == exact optimum on all "
                 f"({len(mismatches)} mismatches; tolerance: exact equality)")
    assert count >= 200
    assert mismatches == []


def test_criterion_3_cover_optimality(capsys):
    rng = random.Random(8127)
    count = 0
    mismatches = []
    while count < 200:
        n = rng.randint(4, 10)
        g = random_2ec(n, None, rng.randrange(10 ** 9))
        h = min_triangle_free_cover(g)
        if not h.certified_minimum:
            continue
        res = exact_min_tf_cover(g)
        count += 1
        if not res.certified or len(h) != res.value:
            mismatches.append((n, len(h), res.value))
    ok = not mismatches
    emit(capsys, f"CRITERION 3 {'PASS' if ok else 'FAIL'}: {count} instances "
                 f"n<=10, certified cover == independent oracle on all "
                 f"({len(mismatches)} mismatches; tolerance: exact equality)")
    assert mismatches == []


def test_criterion_4_cost_bound(corpus_reports, capsys):
    _, reports, _ = corpus_reports
    checked = 0
    violations = []
    for name, rep in reports:
        for leaf in rep["leaves"]:
            for size_key, cost_key in (("canonical_size", "canonical_cost"),
                                       ("post_bridge_size", "post_bridge_cost")):
                if cost_key not in leaf:
                    continue
                checked += 1
                c = Fraction(leaf[cost_key])
                if c > COST_FACTOR * leaf[size_key]:
                    violations.append((name, cost_key, str(c)))
    ok = not violations and checked > 0
    emit(capsys, f"CRITERION 4 {'PASS' if ok else 'FAIL'}: {checked} canonical "
                 f"covers checked, cost(H) <= (5/4)|H| exact in all "
                 f"({len(violations)} violations; tolerance: 0)")
    assert checked > 0
    assert violations == []


def bridged_hosts():
    """Hosts whose canonical covers contain bridges, for direct bridge-cover
    instrumentation (pipeline covers are usually bridgeless already)."""
    out = []
    for k in (2, 3, 4):
        g = MultiGraph(6 * k)
        cover = set()
        for c in range(k):
            b = 6 * c
            for i in range(6):
                cover.add(g.add_edge(b + i, b + (i + 1) % 6))
        for c in range(k - 1):
            cover.add(g.add_edge(6 * c, 6 * (c + 1)))
        g.add_edge(3, 6 * (k - 1) + 3)      # ear closing the chain
        out.append((g, cover))
    return out


def test_criterion_5_bridge_covering_contract(corpus_reports, capsys):
    _, reports, _ = corpus_reports
    stuck = [name for name, rep in reports
             if any("bridge covering" in note for note in rep["notes"])]
    checked = 0
    violations = []
    for g, cover in bridged_hosts():
        h = TwoEdgeCover(g, frozenset(cover))
        history = []
        out = cover_bridges(g, h, observer=lambda b, c: history.append((b, c)))
        checked += 1
        bridges = [b for b, _ in history]
        costs = [c for _, c in history]
        if any(b2 >= b1 for b1, b2 in zip(bridges, bridges[1:])):
            violations.append("bridges not strictly decreasing")
        if any(c2 > c1 for c1, c2 in zip(costs, costs[1:])):
            violations.append("cost increased")
        if out.decomposition.bridges:
            violations.append("bridges remain")
    ok = not stuck and not violations
    emit(capsys, f"CRITERION 5 {'PASS' if ok else 'FAIL'}: 0 admissible "
                 f"inputs stuck ({len(stuck)} stuck notes in corpus), "
                 f"{checked} instrumented runs monotone "
                 f"({len(violations)} violations; tolerance: 0)")
    assert stuck == []
    assert violations == []


def ring_cover(lengths):
    g = MultiGraph(sum(lengths))
    cover = set()
    offs = []
    base = 0
    for ln in lengths:
        offs.append(base)
        for i in range(ln):
            cover.add(g.add_edge(base + i, base + (i + 1) % ln))
        base += ln
    return g, cover, offs


def glue_stress_cases():
    """Multi-component canonical covers that force actual glue steps:
    a huge component with small/large neighbors (spread attachments), and
    rings of cycles driving the non-trivial-segment ladder."""
    cases = []
    for lengths, attach in (
        [(10, 4), [(0, 10), (2, 11), (4, 12)]],         # huge + C4 neighbor
        [(10, 8), [(0, 10), (5, 14)]],                  # huge + large neighbor
        [(10, 6), [(0, 10), (3, 11), (6, 13)]],         # huge + C6 neighbor
    ):
        g, cover, _ = ring_cover(lengths)
        for u, v in attach:
            g.add_edge(u, v)
        cases.append((g, cover))
    for lengths, links in ([(6, 6, 6, 4), 3], [(10, 5, 4), 3], [(5, 5, 5, 5), 2]):
        g, cover, offs = ring_cover(lengths)
        k = len(lengths)
        for i in range(k):
            a, b = offs[i], offs[(i + 1) % k]
            la, lb = lengths[i], lengths[(i + 1) % k]
            for j in range(links):
                g.add_edge(a + j % la, b + j % lb)
        cases.append((g, cover))
    return cases


def test_criterion_6_gluing_contract(corpus_reports, capsys):
    _, reports, _ = corpus_reports
    violations = []
    steps_seen = 0

    def check_steps(name, steps, cost0=None, final_size=None):
        nonlocal steps_seen
        positives = [s for s in steps if Fraction(s["cost_delta"]) > 0]
        steps_seen += len(steps)
        if len(positives) > 1:
            violations.append((name, "more than one positive-delta step"))
        for s in positives:
            if Fraction(s["cost_delta"]) > 3:
                violations.append((name, f"delta {s['cost_delta']} > +3"))
        for s in steps:
            if s["components"][1] >= s["components"][0]:
                violations.append((name, "component count not decreasing"))
        if cost0 is not None and final_size is not None:
            if Fraction(final_size) > cost0 + 1:
                violations.append((name, "final size exceeds cost(H0)+1"))

    # the corpus covers rarely split into pieces; cubic girth >= 5 hosts
    # (generalized Petersen graphs) load the glue steps
    gp_reports = [(f"GP({n},{k})",
                   run_pipeline(generalized_petersen(n, k),
                                PipelineConfig(oracle_mode="off")))
                  for n in range(5, 17) for k in range(1, (n - 1) // 2 + 1)]
    for name, rep in reports + gp_reports:
        for leaf in rep["leaves"]:
            check_steps(name, leaf["glue_steps"],
                        Fraction(leaf["post_bridge_cost"]),
                        leaf["final_size"])
    for i, (g, cover) in enumerate(glue_stress_cases()):
        h = canonicalize(g, TwoEdgeCover(g, frozenset(cover)))
        h = cover_bridges(g, h)
        cost0 = cover_cost(h)
        final, steps = glue_all(g, h)
        check_steps(f"stress/{i}",
                    [{"cost_delta": str(s.cost_delta),
                      "components": [s.components_before, s.components_after]}
                     for s in steps],
                    cost0, len(final.members))
        if len(final.decomposition.components) != 1:
            violations.append((f"stress/{i}", "did not reach one component"))
        if not verify_2ecss(g, final.members):
            violations.append((f"stress/{i}", "stress output infeasible"))
    ok = not violations
    emit(capsys, f"CRITERION 6 {'PASS' if ok else 'FAIL'}: {steps_seen} glue "
                 f"steps checked (<=1 positive delta <= +3 per run, components "
                 f"strictly decreasing, |H'| <= cost(H0)+1); "
                 f"{len(violations)} violations (tolerance: 0)")
    assert violations == []


@functools.cache
def criterion_7_draws():
    """Criterion 7's structured-random instances, each with its 20 + 20
    random bipartitions (V1, V2, matching size required across them)."""
    rng = random.Random(4242)
    draws = []
    while len(draws) < 100:
        n = rng.choice([20, 21, 22, 23, 24])
        g = structured_random(n, p=0.4, seed=rng.randrange(10 ** 9))
        splits = []
        for margin, need in ((10, 4), (5, 3)):
            for _ in range(20):
                vs = list(range(n))
                rng.shuffle(vs)
                split = rng.randint(margin, n - margin)
                splits.append((set(vs[:split]), set(vs[split:]), need))
        draws.append((g, splits))
    return draws


def test_structured_random_golden():
    # criterion 7's instances, recorded while the cut scan still classified
    # each cut by kind
    edges = [g.edges for g, _ in criterion_7_draws()]
    assert hashlib.sha256(json.dumps(edges).encode()).hexdigest() == (
        "69176e3f62bc40576ec96b5877fdfab85a55b52f3ad005f58e1865e866cee77a")


def test_criterion_7_matching_lemmas(capsys):
    violations = []
    draws = criterion_7_draws()
    for g, splits in draws:
        # certify absence of large 3-cuts with the library's cut finder: a
        # 3-cut is large unless it splits off one side of at most 6 vertices
        assert not any(len(comps) >= 3 or min(map(len, comps)) >= 7
                       for comps in (connected_components(g, cut)
                                     for cut in iterate_vertex_cuts(g, 3)))
        assert find_vertex_cut(g, 2) is None
        for v1, v2, need in splits:
            if len(max_matching_across(g, v1, v2)) < need:
                violations.append((g.n, f"{need}-matching", sorted(v1)))
    instances = len(draws)
    ok = not violations
    emit(capsys, f"CRITERION 7 {'PASS' if ok else 'FAIL'}: {instances} "
                 f"structured-random instances x 20+20 bipartitions, "
                 f"4-/3-matchings present in all ({len(violations)} "
                 f"violations; tolerance: 0)")
    assert violations == []


def test_criterion_8_ratio_rail_uncertified(capsys):
    cfg = PipelineConfig(oracle_mode="force", enumeration_budget=6)
    count = 0
    worst = 0.0
    violations = []
    for n in range(7, 15):
        for seed in range(8):
            g = random_2ec(n, None, seed * 100 + n)
            rep = run_pipeline(g, cfg)
            if rep["oracle"]["opt"] is None:
                continue
            count += 1
            assert not rep["certified"]        # documented as uncertified
            r = rep["ratio"]
            worst = max(worst, r)
            if r > RATIO_RAIL:
                violations.append((n, seed, r))
    ok = not violations and count >= 50
    emit(capsys, f"CRITERION 8 {'PASS' if ok else 'FAIL'}: {count} uncertified "
                 f"runs (n0=6), worst ratio {worst:.4f} <= {RATIO_RAIL} "
                 f"safety rail ({len(violations)} violations)")
    assert count >= 50
    assert violations == []


def test_criterion_9_determinism(capsys):
    mismatched = []
    cases = [
        (random_2ec(18, None, 5), PipelineConfig(oracle_mode="off", seed=5)),
        (cycle_ring(5, 4, 1), PipelineConfig(oracle_mode="auto", seed=1)),
        (glued_cliques(10, 10, 3), PipelineConfig(oracle_mode="off")),
        (random_2ec(12, None, 9),
         PipelineConfig(oracle_mode="force", trace=True)),
    ]
    for i, (g, cfg) in enumerate(cases):
        a = serialize_report(run_pipeline(g, cfg))
        b = serialize_report(run_pipeline(g, cfg))
        if a != b:
            mismatched.append(i)
    ok = not mismatched
    emit(capsys, f"CRITERION 9 {'PASS' if ok else 'FAIL'}: {len(cases)} "
                 f"instances run twice, reports byte-identical "
                 f"({len(mismatched)} mismatches; tolerance: 0)")
    assert mismatched == []
