"""Command-line front-end.

Usage:
  twoec INPUT.txt [flags]                 solve a graph from a file ('-' = stdin)
  twoec --family NAME [params] [flags]   generate an instance, then solve it

Graph text format: first line "n m", then m lines "u v" (0-based vertex ids);
'#' starts a comment.  Output is a single JSON report (schema 1) to stdout or
--out.  Exit codes: 0 ok, 1 parse/usage error, 2 infeasible input, 3 internal
invariant violation.
"""

from __future__ import annotations

import argparse
import inspect
import sys
from fractions import Fraction
from pathlib import Path

from .errors import (Infeasible, NotTwoEdgeConnected, ParseError,
                     RejectionLimit, Stuck, StructuredViolation, TwoECError)
from .generate import FAMILIES, generate
from .graph import MultiGraph
from .pipeline import PipelineConfig, graph_text, run_pipeline, serialize_report

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2
EXIT_INTERNAL = 3


def parse_graph(data: bytes | str) -> MultiGraph:
    """Parse the "n m" + edge-line text format; ParseError carries the line."""
    if isinstance(data, bytes):
        data = data.decode("utf-8", errors="replace")
    header = None
    edges = []
    for lineno, raw in enumerate(data.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"expected two integers, got {raw!r}", lineno)
        try:
            a, b = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"non-integer token in {raw!r}", lineno)
        if header is None:
            header = (a, b, lineno)
        else:
            edges.append((a, b, lineno))
    if header is None:
        raise ParseError("empty input")
    n, m, hline = header
    if n < 0 or m < 0:
        raise ParseError("negative header values", hline)
    if len(edges) != m:
        raise ParseError(
            f"header declares {m} edges but body has {len(edges)}", hline)
    g = MultiGraph(n)
    for u, v, lineno in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ParseError(f"vertex out of range 0..{n - 1}: {u} {v}", lineno)
        g.add_edge(u, v)
    return g


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="twoec",
        description="Approximate minimum 2-edge-connected spanning subgraphs.")
    p.add_argument("input", nargs="?", help="graph file ('-' for stdin)")
    p.add_argument("--family", choices=sorted(FAMILIES),
                   help="generate an instance instead of reading one")
    p.add_argument("--n", type=int, help="vertex count (random families)")
    p.add_argument("--p", type=float, help="edge probability (random families)")
    p.add_argument("--k", type=int, help="cycle count (cycle-ring)")
    p.add_argument("--cyclen", type=int, help="cycle length (cycle-ring)")
    p.add_argument("--a", type=int, help="first clique size (glued-cliques)")
    p.add_argument("--b", type=int, help="second clique size (glued-cliques)")
    p.add_argument("--shared", type=int, help="overlap size (glued-cliques)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--alpha", default="5/4")
    p.add_argument("--epsilon", default="1/24")
    p.add_argument("--enum-budget", type=int, default=12,
                   help="max vertex count (>= 2) for exact solves in the reduction")
    p.add_argument("--oracle", choices=["off", "auto", "force"], default="auto")
    p.add_argument("--trace", action="store_true",
                   help="include the reduction trace in the report")
    p.add_argument("--timings", action="store_true",
                   help="include wall times (breaks byte-determinism)")
    p.add_argument("--out", help="write the JSON report here instead of stdout")
    p.add_argument("--dot-dir", help="write numbered DOT snapshots here")
    p.add_argument("--emit-graph", action="store_true",
                   help="print the (generated) graph text to stderr")
    return p


def _family_params(args) -> dict:
    """The family generator's parameters given on the command line, by the
    names of its signature; ValueError names the first required one missing."""
    out = {}
    for name, param in inspect.signature(FAMILIES[args.family]).parameters.items():
        if name == "seed":
            continue
        val = getattr(args, name)
        if val is not None:
            out[name] = val
        elif param.default is param.empty:
            raise ValueError(f"--family {args.family} needs --{name}")
    return out


def _write_dot(path: Path, g: MultiGraph, members=None, label=""):
    members = set(members or ())
    lines = ["graph G {", f'  label="{label}";']
    for v in range(g.n):
        lines.append(f"  {v};")
    for eid, u, v in g.edges:
        style = ' [penwidth=2]' if eid in members else ' [color=gray]'
        lines.append(f"  {u} -- {v}{style};  // e{eid}")
    lines.append("}")
    path.write_text("\n".join(lines) + "\n")


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.family:
            g = generate(args.family, _family_params(args), seed=args.seed)
        elif args.input:
            data = sys.stdin.buffer.read() if args.input == "-" else \
                Path(args.input).read_bytes()
            g = parse_graph(data)
        else:
            parser.error("provide an input file or --family")
    except (ParseError, RejectionLimit, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    if args.emit_graph:
        sys.stderr.write(graph_text(g))

    try:
        cfg = PipelineConfig(
            alpha=Fraction(args.alpha), epsilon=Fraction(args.epsilon),
            enumeration_budget=args.enum_budget, oracle_mode=args.oracle,
            seed=args.seed, trace=args.trace, timings=args.timings)
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: bad configuration: {exc}", file=sys.stderr)
        return EXIT_USAGE

    dot_dir = Path(args.dot_dir) if args.dot_dir else None
    if dot_dir is not None:
        dot_dir.mkdir(parents=True, exist_ok=True)
        _write_dot(dot_dir / "00-input.dot", g, label="input")

    try:
        report = run_pipeline(g, cfg)
    except (NotTwoEdgeConnected, Infeasible) as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (Stuck, StructuredViolation, AssertionError) as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except TwoECError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL

    if dot_dir is not None:
        _write_dot(dot_dir / "01-solution.dot", g,
                   members=report["solution"]["edges"], label="solution")

    text = serialize_report(report)
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
