"""CLI: parsing, report shape, exit codes, determinism, DOT export."""

import io
import json

import pytest

from twoec.cli import (EXIT_INFEASIBLE, EXIT_OK, EXIT_USAGE, main,
                       parse_graph)
from twoec.errors import ParseError
from twoec.pipeline import graph_text, serialize_report


# ---------------------------------------------------------------------------
# parsing

def test_parse_c4():
    g = parse_graph("4 4\n0 1\n1 2\n2 3\n3 0\n")
    assert g.n == 4 and g.m == 4
    assert [e[1:] for e in g.edges] == [(0, 1), (1, 2), (2, 3), (3, 0)]


def test_parse_comments_and_blank_lines():
    g = parse_graph("# a square\n3 3\n\n0 1  # first\n1 2\n2 0\n")
    assert g.n == 3 and g.m == 3


def test_parse_header_mismatch():
    with pytest.raises(ParseError):
        parse_graph("4 4\n0 1\n1 2\n")


def test_parse_duplicate_line_keeps_parallel_edges():
    g = parse_graph("2 2\n0 1\n0 1\n")
    assert g.m == 2
    assert g.has_self_loop_or_parallel() is not None


def test_parse_vertex_out_of_range():
    with pytest.raises(ParseError) as e:
        parse_graph("2 1\n0 5\n")
    assert e.value.line == 2


def test_parse_non_integer():
    with pytest.raises(ParseError):
        parse_graph("2 1\nx y\n")


def test_parse_empty():
    with pytest.raises(ParseError):
        parse_graph("  \n# nothing\n")


def test_graph_text_roundtrip():
    g = parse_graph("4 5\n0 1\n1 2\n2 3\n3 0\n0 2\n")
    assert parse_graph(graph_text(g)).edges == g.edges


# ---------------------------------------------------------------------------
# exit codes and reports

def write_c8(tmp_path):
    p = tmp_path / "c8.txt"
    p.write_text("8 8\n" + "\n".join(f"{i} {(i + 1) % 8}" for i in range(8)) + "\n")
    return p


def test_cli_solves_cycle(tmp_path, capsys):
    p = write_c8(tmp_path)
    assert main([str(p)]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["schema"] == 1
    assert report["solution"]["size"] == 8
    assert report["ratio"] == 1.0


def test_cli_parse_error_exit_1(tmp_path, capsys):
    p = tmp_path / "bad.txt"
    p.write_text("3 9\n0 1\n")
    assert main([str(p)]) == EXIT_USAGE


def test_cli_missing_file_exit_1(tmp_path):
    assert main([str(tmp_path / "absent.txt")]) == EXIT_USAGE


def test_cli_infeasible_exit_2(tmp_path, capsys):
    p = tmp_path / "path.txt"
    p.write_text("3 2\n0 1\n1 2\n")
    assert main([str(p)]) == EXIT_INFEASIBLE


def test_cli_generates_family(capsys):
    assert main(["--family", "cycle-ring", "--k", "3", "--cyclen", "4",
                 "--seed", "1", "--oracle", "off"]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["input"]["n"] == 12


def test_cli_out_file_and_dot_dir(tmp_path, capsys):
    p = write_c8(tmp_path)
    out = tmp_path / "report.json"
    dots = tmp_path / "dots"
    assert main([str(p), "--out", str(out), "--dot-dir", str(dots)]) == EXIT_OK
    report = json.loads(out.read_text())
    assert report["solution"]["size"] == 8
    files = sorted(f.name for f in dots.iterdir())
    assert files == ["00-input.dot", "01-solution.dot"]
    assert "graph G {" in (dots / "00-input.dot").read_text()


def test_report_roundtrip_byte_identical(tmp_path, capsys):
    p = write_c8(tmp_path)
    assert main([str(p)]) == EXIT_OK
    text = capsys.readouterr().out
    assert serialize_report(json.loads(text)) == text


def test_cli_determinism_same_seed(capsys):
    args = ["--family", "random-2ec", "--n", "14", "--seed", "7"]
    assert main(args) == EXIT_OK
    first = capsys.readouterr().out
    assert main(args) == EXIT_OK
    second = capsys.readouterr().out
    assert first == second


def test_cli_trace_flag(tmp_path, capsys):
    p = write_c8(tmp_path)
    assert main([str(p), "--trace"]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert "trace" in report and report["trace"]


def test_cli_bad_epsilon_is_usage_error(tmp_path, capsys):
    p = write_c8(tmp_path)
    assert main([str(p), "--epsilon", "1/2"]) == EXIT_USAGE


@pytest.mark.parametrize("budget, text", [
    ("1", "2 2\n0 1\n0 1\n"),          # the 2-vertex double edge
    ("0", "3 3\n0 1\n1 2\n2 0\n"),    # a triangle
])
def test_cli_enum_budget_below_two_is_usage_error(monkeypatch, capsys,
                                                   budget, text):
    # budgets 0 and 1 used to fail these valid inputs with exit 2
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(
        io.BytesIO(text.encode())))
    assert main(["-", "--enum-budget", budget]) == EXIT_USAGE
    assert "bad configuration" in capsys.readouterr().err
