#!/usr/bin/env python3
"""Line-traced reach census of the solver over the report-digest instances.

Solves the 284 instances of `report_digest.families(20, 2, [301])` (the
random-2ec, cycle-ring and glued-cliques corpus up to n = 20 with two
seeds, the wheels W_10-W_60, the 77 cubic graphs of the glue family and
the three timed workloads at seed 301) with the oracle off, under
`sys.settrace`; the graphs are built under the trace too.  It prints, for
each function of src/twoec with a line that no instance ran, its qualified
name and those line numbers ("never called" when no line ran), then the
number of reduction steps and of glue steps of each kind over all
instances, then how many glue steps each rung of the two glue ladders made,
then how many covers `glue_all` received and how many of their components
are of each kind (`TwoEdgeCover.classification()`).

It takes no options.  One run takes about 45 s in one process on a 2-core
x86-64 VM.

Example:
  python3 scripts/reach_census.py
"""

import inspect
import sys
from collections import Counter
from pathlib import Path

from report_digest import families

import twoec
from twoec import pipeline
from twoec.pipeline import PipelineConfig, run_pipeline

SRC = Path(twoec.__file__).resolve().parent


def functions(code, in_function=False):
    """Every function code object nested in `code`.  Class bodies, and
    comprehensions outside a function, run at import and are passed
    through."""
    for const in code.co_consts:
        if inspect.iscode(const):
            inner = bool(const.co_flags & inspect.CO_OPTIMIZED)
            if inner and (in_function or not const.co_name.startswith("<")):
                yield const
            yield from functions(const, inner)


def code_lines(code):
    """The line numbers of code's own instructions."""
    return {line for _, _, line in code.co_lines() if line is not None}


def ranges(lines):
    """'3-5, 9' for {3, 4, 5, 9}."""
    out = []
    for x in sorted(lines):
        if out and out[-1][1] == x - 1:
            out[-1][1] = x
        else:
            out.append([x, x])
    return ", ".join(f"{a}" if a == b else f"{a}-{b}" for a, b in out)


RUNGS = ("trivial: Large2EC pair", "trivial: C4/C5 Hamiltonian path",
         "trivial: C6/C7 Hamiltonian path", "non-trivial: C4/C5 cycle",
         "non-trivial: shortest cycle")


def rung(h, step):
    """The ladder rung that made a segment glue step on cover h, or None for
    MakeHuge.  In a non-trivial segment only the C4/C5 cycle removes edges;
    in a trivial one only the Large2EC pair removes none, and a Hamiltonian
    path step removes edges of the cycle it absorbs, whose kind, C4/C5 or
    C6/C7, names the rung."""
    if step.kind == "MakeHuge":
        return None
    if step.kind == "NonTrivialSegmentGlue":
        return RUNGS[3] if step.removed else RUNGS[4]
    if not step.removed:
        return RUNGS[0]
    kind = next(k for i, k in enumerate(h.classification())
                if step.removed <= set(h.component_edges(i)))
    return RUNGS[1] if kind in ("C4", "C5") else RUNGS[2]


def main():
    ran = {}                     # file name -> line numbers run

    def tracer(frame, event, arg):
        lines = ran.get(frame.f_code.co_filename)
        if lines is None:
            return None
        # a call's first instruction sits on its first line, which gets no
        # line event
        lines.add(frame.f_code.co_firstlineno)

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local
        return local

    modules = sorted(SRC.glob("*.py"))
    for path in modules:
        ran[str(path)] = set()
    steps = Counter()
    glue = Counter()
    rungs = Counter()
    kinds = Counter()
    covers = 0
    count = 0
    glue_all = pipeline.glue_all

    def counting_glue_all(g, h):
        nonlocal covers
        out = glue_all(g, h)
        covers += 1
        kinds.update(h.classification())
        for step in out[1]:
            rungs[rung(h, step)] += 1
            h = h.replace(h.members - step.removed | step.added)
        return out

    pipeline.glue_all = counting_glue_all
    sys.settrace(tracer)
    try:
        cfg = PipelineConfig(oracle_mode="off", trace=True)
        for _, _, g in families(20, 2, [301]):
            report = run_pipeline(g, cfg)
            count += 1
            steps.update(t["step"] for t in report["trace"])
            glue.update(s["kind"] for leaf in report["leaves"]
                        for s in leaf["glue_steps"])
    finally:
        sys.settrace(None)
        pipeline.glue_all = glue_all

    print(f"# {count} instances; lines of src/twoec no instance ran")
    for path in modules:
        code = compile(path.read_text(), str(path), "exec")
        for fn in functions(code):
            lines = code_lines(fn)
            missed = lines - ran[str(path)]
            if not missed:
                continue
            where = "never called" if missed == lines else ranges(missed)
            print(f"{path.stem}.{fn.co_qualname}: {where}")
    for title, counts in (("reduction steps", steps), ("glue steps", glue)):
        print(f"# {title}: {sum(counts.values())}")
        for kind, k in sorted(counts.items()):
            print(f"{kind}\t{k}")
    print(f"# segment glue steps by rung: {sum(rungs[r] for r in RUNGS)}")
    for r in RUNGS:
        print(f"{r}\t{rungs[r]}")
    print(f"# cover kinds entering glue: {covers} covers")
    for kind in ("C4", "C5", "C6", "C7", "Large2EC", "Complex", "Other"):
        print(f"{kind}\t{kinds[kind]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
