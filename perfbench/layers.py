"""Per-layer probes for the traced run.

Each probe replaces a library function at the module attribute its caller
looks up (for example `twoec.pipeline.canonicalize`, not
`twoec.cover.canonicalize`), so the library itself is not edited.  Counts
come only from what the wrapped public calls return and from how the calls
nest: `ExactResult.nodes_explored`, the reduction trace, the report's
leaves, None versus non-None results and nested call counts.
"""

from __future__ import annotations

from .spans import Recorder

# Trace step kinds of twoec.reduction; "3-cut-C2-<subcase>" is folded into
# "3-cut-C2" and anything not listed is counted as "other".
STEP_KINDS = (
    "brute-force", "1-cut-split", "drop-redundant-edge", "contract-subgraph",
    "contract-violation-witness", "drop-irrelevant-edge", "2-cut-split",
    "3-cut-both-large", "3-cut-contract-A", "3-cut-B1", "3-cut-B2",
    "3-cut-C1", "3-cut-C2", "3-cut-C3", "structured-leaf", "other",
)

# (metric, unit) in report order.  Time metrics are self times.
PER_LAYER = (
    [("graph.cut1_s", "s"), ("graph.cut1_calls", "count"),
     ("graph.cut2_s", "s"), ("graph.cut2_found", "count"),
     ("graph.cut3_s", "s"), ("graph.cut3_found", "count"),
     ("graph.is2ec_s", "s"), ("graph.contract_s", "s"),
     ("reduction.self_s", "s"), ("reduction.levels", "count")]
    + [(f"reduction.steps.{kind}", "count") for kind in STEP_KINDS]
    + [("reduction.contractible_s", "s"),
       ("reduction.contractible_calls", "count"),
       ("reduction.contractible_hits", "count"),
       ("reduction.typed_s", "s"), ("reduction.typed_calls", "count"),
       ("reduction.typed_solved", "count"),
       ("reduction.patch_s", "s"), ("reduction.patch_calls", "count"),
       ("reduction.patch_tries", "count"),
       ("oracle.exact_s", "s"), ("oracle.exact_calls", "count"),
       ("oracle.exact_nodes", "count"),
       ("oracle.inside_s", "s"), ("oracle.inside_calls", "count"),
       ("oracle.verify_s", "s"), ("oracle.verify_calls", "count"),
       ("cover.tf_s", "s"), ("cover.tf_exact_frac", "frac"),
       ("cover.leaves", "count"), ("cover.canonicalize_s", "s"),
       ("credits.bridges_s", "s"), ("credits.ledger_s", "s"),
       ("glue.s", "s"), ("glue.steps", "count"),
       ("pipeline.self_s", "s"), ("trace.overhead_frac", "frac")])

# metric -> span label whose self time it reports
SELF_TIME = {
    "graph.cut1_s": "graph.cut1", "graph.cut2_s": "graph.cut2",
    "graph.cut3_s": "graph.cut3", "graph.is2ec_s": "graph.is2ec",
    "graph.contract_s": "graph.contract", "reduction.self_s": "reduction",
    "reduction.contractible_s": "reduction.contractible",
    "reduction.typed_s": "reduction.typed",
    "reduction.patch_s": "reduction.patch", "oracle.exact_s": "oracle.exact",
    "oracle.inside_s": "oracle.inside", "oracle.verify_s": "oracle.verify",
    "cover.tf_s": "cover.tf", "cover.canonicalize_s": "cover.canonicalize",
    "credits.bridges_s": "credits.bridges",
    "credits.ledger_s": "credits.ledger", "glue.s": "glue",
    "pipeline.self_s": "pipeline",
}

# metric -> span label whose call count it reports
CALLS = {
    "graph.cut1_calls": "graph.cut1",
    "reduction.contractible_calls": "reduction.contractible",
    "reduction.typed_calls": "reduction.typed",
    "reduction.patch_calls": "reduction.patch",
    "oracle.exact_calls": "oracle.exact",
    "oracle.inside_calls": "oracle.inside",
    "oracle.verify_calls": "oracle.verify",
}


def _cut_label(g, k, *args, **kwargs):
    return f"graph.cut{k}"


def _count_found(rec, label, cert):
    if cert is not None:
        rec.counts[label + ".found"] += 1


def _count_hit(rec, label, found):
    if found is not None:
        rec.counts["reduction.contractible_hits"] += 1


def _count_typed(rec, label, result):
    value, _solutions = result
    if value is not None:
        rec.counts["reduction.typed_solved"] += 1


def _count_nodes(rec, label, res):
    if res is not None:
        rec.counts["oracle.exact_nodes"] += res.nodes_explored


def _count_steps(rec, label, result):
    _solution, ctx = result
    rec.counts["reduction.levels"] += len(ctx["trace"])
    for step in ctx["trace"]:
        kind = step["step"]
        if kind.startswith("3-cut-C2-"):
            kind = "3-cut-C2"
        if kind not in STEP_KINDS:
            kind = "other"
        rec.counts["reduction.steps." + kind] += 1


def _count_cover(rec, label, cover):
    rec.counts["cover.tf_results"] += 1
    rec.counts["cover.tf_exact"] += bool(cover.certified_minimum)


def _count_glue(rec, label, result):
    _final, steps = result
    rec.counts["glue.steps"] += len(steps)


def _count_leaves(rec, label, report):
    rec.counts["cover.leaves"] += len(report["leaves"])


def probes(rec: Recorder, twoec):
    """(module, attribute, wrapper) for every probed call site of the
    freshly imported package `twoec`."""
    red, pipe, orc, glue = (twoec.reduction, twoec.pipeline, twoec.oracle,
                            twoec.glue)
    w = rec.wrap
    return [
        (red, "find_vertex_cut", w(red.find_vertex_cut, _cut_label,
                                   _count_found)),
        (red, "iterate_vertex_cuts",
         rec.wrap_generator(red.iterate_vertex_cuts, _cut_label,
                            _count_found)),
        (red, "is_two_edge_connected",
         w(red.is_two_edge_connected, "graph.is2ec")),
        (pipe, "is_two_edge_connected",
         w(pipe.is_two_edge_connected, "graph.is2ec")),
        (orc, "is_two_edge_connected",
         w(orc.is_two_edge_connected, "graph.is2ec")),
        (red, "contract", w(red.contract, "graph.contract")),
        (glue, "contract_many", w(glue.contract_many, "graph.contract")),
        (red, "find_contractible_certificate",
         w(red.find_contractible_certificate, "reduction.contractible",
           _count_hit)),
        (red, "enumerate_min_typed_subgraph",
         w(red.enumerate_min_typed_subgraph, "reduction.typed",
           _count_typed)),
        (red, "find_min_patch", w(red.find_min_patch, "reduction.patch")),
        (orc, "exact_min_2ecss", w(orc.exact_min_2ecss, "oracle.exact",
                                   _count_nodes)),
        (orc, "exact_inside_oracle",
         w(orc.exact_inside_oracle, "oracle.inside")),
        (orc, "verify_2ecss", w(orc.verify_2ecss, "oracle.verify")),
        (pipe, "reduce", w(pipe.reduce, "reduction", _count_steps)),
        (pipe, "min_triangle_free_cover",
         w(pipe.min_triangle_free_cover, "cover.tf", _count_cover)),
        (pipe, "canonicalize", w(pipe.canonicalize, "cover.canonicalize")),
        (pipe, "init_credits", w(pipe.init_credits, "credits.ledger")),
        (pipe, "assert_cost_bound",
         w(pipe.assert_cost_bound, "credits.ledger")),
        (pipe, "cover_bridges", w(pipe.cover_bridges, "credits.bridges")),
        (pipe, "glue_all", w(pipe.glue_all, "glue", _count_glue)),
        (pipe, "run_pipeline", w(pipe.run_pipeline, "pipeline",
                                 _count_leaves)),
    ]


def round_metrics(rec: Recorder) -> dict:
    """Per-layer values of one traced round (everything but the tracing
    overhead, which needs the untraced rounds)."""
    out = {}
    for metric, label in SELF_TIME.items():
        out[metric] = rec.self_s.get(label, 0.0)
    for metric, label in CALLS.items():
        out[metric] = rec.calls.get(label, 0)
    for k in (2, 3):
        out[f"graph.cut{k}_found"] = rec.counts.get(f"graph.cut{k}.found", 0)
    results = rec.counts.get("cover.tf_results", 0)
    out["cover.tf_exact_frac"] = (rec.counts.get("cover.tf_exact", 0) / results
                                  if results else 0.0)
    out["reduction.patch_tries"] = rec.nested.get(
        ("reduction.patch", "oracle.verify"), 0)
    for metric, unit in PER_LAYER:
        if metric not in out and unit == "count":
            out[metric] = rec.counts.get(metric, 0)
    return out


def shares(rec: Recorder) -> list:
    """(label, self time, share of all self time), largest first."""
    total = sum(rec.self_s.values()) or 1.0
    return sorted(((label, t, t / total) for label, t in rec.self_s.items()),
                  key=lambda x: -x[1])
