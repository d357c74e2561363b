"""End-to-end pipeline: reduction to structured leaves, then per leaf
cover -> canonicalize -> credit accounting -> bridge covering -> gluing,
with reassembly and a machine-readable run report.

Robustness contract: when a later phase proves its input was not actually
structured (canonicalization stall, bridge covering stuck, or an explicit
glue-phase violation), the evidence is converted into a 2EC witness subgraph
and handed back to the reduction as a contraction step, clearing `certified`.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass
from fractions import Fraction

from . import oracle
from .cover import TwoEdgeCover, canonicalize, min_triangle_free_cover
from .credits import assert_cost_bound, cover_bridges, init_credits
from .errors import NotCanonical, NotTwoEdgeConnected, Stuck, StructuredViolation
from .glue import glue_all
from .graph import EdgeSubset, MultiGraph, is_two_edge_connected
from .reduction import ReductionConfig, reduce, verify_approx_bound

SCHEMA_VERSION = 1
ORACLE_AUTO_MAX_N = 14     # largest input the "auto" oracle mode solves


@dataclass
class PipelineConfig:
    alpha: Fraction = Fraction(5, 4)
    epsilon: Fraction = Fraction(1, 24)
    enumeration_budget: int = 12
    oracle_mode: str = "auto"          # off | auto | force
    oracle_node_budget: int = 5 * 10 ** 6
    seed: int | None = None            # echoed into the report only
    trace: bool = False
    timings: bool = False              # wall times break byte-determinism

    def reduction_config(self) -> ReductionConfig:
        return ReductionConfig(
            alpha=self.alpha, epsilon=self.epsilon,
            enumeration_budget=self.enumeration_budget,
            oracle_node_budget=self.oracle_node_budget)


def graph_text(g: MultiGraph) -> str:
    """Canonical text serialization (the CLI ingestion format)."""
    lines = [f"{g.n} {g.m}"]
    for _, u, v in g.edges:
        lines.append(f"{u} {v}")
    return "\n".join(lines) + "\n"


def fingerprint(g: MultiGraph) -> dict:
    text = graph_text(g)
    return {"n": g.n, "m": g.m,
            "sha256": hashlib.sha256(text.encode()).hexdigest()}


def _violation_from_not_canonical(sub: MultiGraph, h: TwoEdgeCover,
                                  exc: NotCanonical) -> StructuredViolation:
    """A canonicalization stall exhibits a component or block of the cover
    whose shape the canonical form forbids on structured hosts; its bridgeless
    part is a 2EC subgraph usable as a contraction witness."""
    d = h.decomposition
    for v in exc.violations:
        if v.kind == "SmallNonCycleComponent":
            ci = d.component_of[v.witness[0]]
            edges = [e for e in h.component_edges(ci) if e not in d.bridges]
        else:
            edges = list(v.witness)            # block violations carry edge ids
        if len(edges) >= 3 and is_two_edge_connected(
                EdgeSubset(sub, frozenset(edges))):
            return StructuredViolation(
                f"canonicalization stalled on {v.kind}", edges=edges,
                justification=f"canonical-form violation {v.kind}")
    raise exc


def _violation_from_stuck(sub: MultiGraph, h: TwoEdgeCover,
                          exc: Stuck) -> StructuredViolation:
    """Bridge covering stuck: the largest block of a complex component is a
    2EC subgraph; contract it and retry the reduction."""
    d = h.decomposition
    emap = sub.edge_map()
    complex_comps = {d.component_of[emap[e][0]] for e in d.bridges}
    best = None
    for bi, block in enumerate(d.blocks):
        if d.block_component[bi] in complex_comps:
            if best is None or len(block) > len(best):
                best = block
    if best is not None and len(best) >= 3:
        return StructuredViolation(
            "bridge covering found no admissible move", edges=list(best),
            justification="stuck bridge covering; contracting a block")
    raise exc


def _structured_leaf_solver(cfg: PipelineConfig, leaf_records: list):
    def solve(sub: MultiGraph):
        record = {"n": sub.n, "m": sub.m}
        h = min_triangle_free_cover(sub)
        record["cover_size"] = len(h)
        record["cover_certified"] = h.certified_minimum
        try:
            h = canonicalize(sub, h)
        except NotCanonical as exc:
            raise _violation_from_not_canonical(sub, h, exc) from exc
        record["canonical_size"] = len(h)
        ledger = init_credits(h)
        record["canonical_cost"] = str(assert_cost_bound(h, ledger))
        try:
            h, ledger = cover_bridges(sub, h, ledger)
        except Stuck as exc:
            raise _violation_from_stuck(sub, h, exc) from exc
        cost_h0 = assert_cost_bound(h, ledger)
        record["post_bridge_cost"] = str(cost_h0)
        record["post_bridge_size"] = len(h)
        final, steps = glue_all(sub, h)
        record["glue_steps"] = [
            {"kind": s.kind, "added": sorted(s.added),
             "removed": sorted(s.removed), "cost_delta": str(s.cost_delta),
             "components": [s.components_before, s.components_after]}
            for s in steps]
        record["final_size"] = len(final)
        if Fraction(len(final)) > cost_h0 + 1:
            raise AssertionError(
                f"glued solution size {len(final)} exceeds cost(H0)+1 = {cost_h0 + 1}")
        leaf_records.append(record)
        return set(final.members)
    return solve


def run_pipeline(g: MultiGraph, cfg: PipelineConfig | None = None) -> dict:
    """Solve g and return the JSON-serializable run report (schema 1)."""
    if cfg is None:
        cfg = PipelineConfig()
    t0 = time.monotonic()
    report = {
        "schema": SCHEMA_VERSION,
        "input": fingerprint(g),
        "config": {
            "alpha": str(cfg.alpha),
            "epsilon": str(cfg.epsilon),
            "enumeration_budget": cfg.enumeration_budget,
            "oracle": cfg.oracle_mode,
            "oracle_node_budget": cfg.oracle_node_budget,
            "seed": cfg.seed,
        },
    }
    if not is_two_edge_connected(g):
        raise NotTwoEdgeConnected("input graph is not 2-edge-connected")

    leaf_records: list = []
    rcfg = cfg.reduction_config()
    sol, ctx = reduce(g, rcfg, _structured_leaf_solver(cfg, leaf_records))
    if not oracle.verify_2ecss(g, sol.members):
        raise AssertionError("pipeline output failed verification")

    report["leaves"] = leaf_records
    report["certified"] = ctx["certified"]
    report["notes"] = ctx["notes"]
    if cfg.trace:
        report["trace"] = ctx["trace"]
    report["solution"] = {
        "size": len(sol),
        "edges": sorted(sol.members),
    }

    opt = None
    run_oracle = cfg.oracle_mode == "force" or (
        cfg.oracle_mode == "auto" and g.n <= ORACLE_AUTO_MAX_N)
    if run_oracle:
        # the reduction's base case has solved small inputs exactly already,
        # on the same graph and with the same node budget
        res = ctx["exact"] if "exact" in ctx else \
            oracle.exact_min_2ecss(g, cfg.oracle_node_budget)
        if res is not None and res.certified:
            opt = res.value
            report["oracle"] = {"opt": opt, "nodes": res.nodes_explored}
        else:
            report["oracle"] = {"opt": None, "exhausted": True}
    report["bound"] = verify_approx_bound(len(sol), g.n, rcfg,
                                          ctx["certified"], opt)
    if opt:
        report["ratio"] = len(sol) / opt
    if cfg.timings:
        report["wall_seconds"] = time.monotonic() - t0
    return report


def serialize_report(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"
