from __future__ import annotations

import io

import pytest

import altcycles as ac
from altcycles import BLUE, RED
from altcycles.cli import export_dot, main
from altcycles.graph import MAX_VERTICES
from conftest import (
    G8b,
    assert_no_alternating_path,
    not_color_connected_graph,
    ring,
    triangle_graph,
    two_cycle_gap_graph,
)


@pytest.fixture
def write_graph(tmp_path):
    def _write(g, name="g.txt"):
        path = tmp_path / name
        path.write_text(ac.serialize_text(g))
        return str(path)

    return _write


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def ring_graph(half=3):
    g = ac.empty(2 * half)
    ring(g, 0, half)
    return g


def test_check_true(capsys, write_graph):
    path = write_graph(ring_graph())
    code, out, _ = run(capsys, "check", "--predicate", "color-connected", path)
    assert code == 0
    assert out.strip() == "true"


def test_check_false_with_witness(capsys, write_graph):
    g = ac.empty(3)
    g.add_edge(0, 1, BLUE).add_edge(1, 2, BLUE)
    path = write_graph(g)
    code, out, _ = run(capsys, "check", "--predicate", "2m-closed", path)
    assert code == 1
    lines = out.splitlines()
    assert lines[0] == "false"
    assert lines[1] == "witness 2path 0 1 2"
    # replay the witness against the library
    x1, x2, x3 = map(int, lines[1].split()[2:])
    assert g.has_edge_any(x1, x2) and g.has_edge_any(x2, x3)
    assert not g.has_edge_any(x1, x3)


def test_check_color_connected_deep_search(capsys, write_graph):
    # an alternating path 0, 1199, 1198, ..., 1: the first pair checked,
    # (0, 1), needs a search 1199 edges deep and has no blue-first path
    g = ac.empty(1200)
    for i in range(1, 1200):
        g.add_edge(i, (i + 1) % 1200, BLUE if i % 2 == 0 else RED)
    code, out, err = run(capsys, "check", "--predicate", "color-connected", write_graph(g))
    assert (code, err) == (1, "")
    assert out.splitlines()[:2] == ["false", "witness pair 0 1"]


def test_check_color_connected_searches_only_what_the_verdict_needs(capsys, write_graph):
    # connected: two searches settle each pair. Running all four per pair,
    # exhaustive when they find nothing, took about 90 s on a two-vCPU VM
    path = write_graph(ac.gen_random(20, 7, 0.3))
    code, out, err = run(capsys, "check", "--predicate", "color-connected", path)
    assert (code, out, err) == (0, "true\n", "")


def test_check_2nm(capsys, write_graph):
    g = ac.empty(3)
    g.add_edge(0, 1, BLUE).add_edge(1, 2, RED)
    path = write_graph(g)
    code, out, _ = run(capsys, "check", "--predicate", "2nm-closed", path)
    assert code == 1 and "witness 2path 0 1 2" in out
    code, out, _ = run(capsys, "check", "--predicate", "2m-closed", path)
    assert code == 0


def test_check_closed_alternating(capsys, write_graph):
    path = write_graph(ring_graph())
    code, out, _ = run(capsys, "check", "--predicate", "closed-alternating", path)
    assert code == 1
    assert out.splitlines()[1].startswith("witness 3path ")


def test_check_color_connected_false(capsys, write_graph):
    g, _ = not_color_connected_graph()
    path = write_graph(g)
    code, out, _ = run(capsys, "check", "--predicate", "color-connected", path)
    assert code == 1
    assert out.splitlines()[1].startswith("witness pair ")


def test_solve_hamiltonian(capsys, write_graph):
    path = write_graph(ring_graph())
    code, out, _ = run(capsys, "solve", path)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "hamiltonian"
    assert lines[1].startswith("cycle ")
    verts = list(map(int, lines[1].split(":")[0].split()[1:]))
    assert sorted(verts) == list(range(6))


def test_solve_no_factor(capsys, write_graph):
    g = ac.empty(4)
    for u in range(4):
        for v in range(u + 1, 4):
            g.add_edge(u, v, BLUE)
    code, out, _ = run(capsys, "solve", write_graph(g))
    assert code == 2 and out.strip() == "no-factor"


def test_solve_not_color_connected(capsys, write_graph):
    g, _ = not_color_connected_graph()
    code, out, _ = run(capsys, "solve", write_graph(g))
    assert code == 3
    lines = out.splitlines()
    assert lines[0] == "not-color-connected"
    _, vertex, start, target = lines[1].split()
    assert_no_alternating_path(g, int(vertex), int(target), ac.Color.from_letter(start))


def test_solve_not_2m_closed(capsys, write_graph):
    g = ac.empty(3)
    g.add_edge(0, 1, RED).add_edge(1, 2, RED)
    code, out, _ = run(capsys, "solve", write_graph(g))
    assert code == 4
    assert out.splitlines()[0] == "not-2m-closed"


def two_rings_graph():
    g = ac.empty(8)
    ring(g, 0, 2)
    ring(g, 4, 2)
    return g


# exact stdout, trace lines included, so merge-loop changes keep it byte-identical
TRACE_CASES = [
    (
        "not-color-connected",
        lambda: not_color_connected_graph()[0],
        3,
        "dominate 1 2 B\ndominate 1 2 B\ndominate 1 2 B\n"
        "not-color-connected\ncertificate 0 R 4\n",
    ),
    (
        "triangle-RRB",
        lambda: triangle_graph((RED, RED, BLUE))[0],
        0,
        "merge good-pair\nhamiltonian\n"
        "cycle 0 10 6 3 13 12 11 7 2 8 4 1 9 5 : B R B R B R B R B R B R B R\n",
    ),
    ("two-rings", two_rings_graph, 3, "not-color-connected\ncertificate 0 B 4\n"),
    (
        "mixed-star-G8b",
        lambda: G8b()[0],
        0,
        "merge mixed-star\nhamiltonian\ncycle 5 4 1 0 7 6 3 2 : B R B R B R B R\n",
    ),
]


@pytest.mark.parametrize(
    "build, code, stdout", [c[1:] for c in TRACE_CASES], ids=[c[0] for c in TRACE_CASES]
)
def test_solve_trace(capsys, write_graph, build, code, stdout):
    assert run(capsys, "solve", "--trace", write_graph(build()))[:2] == (code, stdout)


def test_factor(capsys, write_graph):
    code, out, _ = run(capsys, "factor", write_graph(two_rings_graph()))
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 2 and all(l.startswith("cycle ") for l in lines)


def test_factor_none(capsys, write_graph):
    g = ac.empty(2)
    g.add_edge(0, 1, BLUE)
    code, out, _ = run(capsys, "factor", write_graph(g))
    assert code == 1 and out.strip() == "none"


def test_factor_min_cycle_len(capsys, write_graph):
    g = ac.empty(2)
    g.add_edge(0, 1, BLUE).add_edge(0, 1, RED)
    code, out, _ = run(capsys, "factor", write_graph(g))
    assert code == 0
    code, out, _ = run(capsys, "factor", "--min-cycle-len", "4", write_graph(g))
    assert code == 1 and out.strip() == "none"


def test_factor_min_cycle_len_takes_only_2_or_4(capsys, write_graph):
    # the flag chooses between two searches; other lengths are not honoured
    path = write_graph(ac.gen_complete(8, 0))
    for value in ("6", "3"):
        code, out, err = run(capsys, "factor", "--min-cycle-len", value, path)
        assert code == 64 and out == ""
        assert "invalid choice" in err


@pytest.mark.parametrize("argv", [["oracle", "hamiltonian"], ["oracle", "factor"]])
def test_deep_exhaustive_search_exits_70(capsys, write_graph, argv):
    # the oracles recurse once per path vertex, and round a 1200-vertex
    # alternating ring that is deeper than Python's recursion limit
    code, out, err = run(capsys, *argv, write_graph(ring_graph(600)))
    assert code == 70
    assert out == ""
    assert err == "error: exhaustive search exceeded the recursion limit\n"


def test_factor_min_cycle_len_takes_a_factor_without_two_cycles(capsys, write_graph):
    # the plain factor of the 1200-vertex ring is the ring itself, so the
    # exhaustive search, too deep there, never runs
    code, out, _ = run(capsys, "factor", "--min-cycle-len", "4", write_graph(ring_graph(600)))
    assert code == 0
    (line,) = out.splitlines()
    verts = line.split(" : ")[0].split()
    assert verts[0] == "cycle" and sorted(map(int, verts[1:])) == list(range(1200))


def test_factor_min_cycle_len_falls_back_to_one_matching_after_the_other(
    capsys, write_graph, monkeypatch
):
    # every edge of the 1200-vertex ring carries both colors: the plain
    # factor is 600 2-cycles, and the exhaustive search would be too deep
    def exhaustive(*args, **kwargs):
        raise AssertionError("oracle_factor ran")

    monkeypatch.setattr("altcycles.oracles.oracle_factor", exhaustive)
    g = ac.empty(1200)
    for v in range(1200):
        g.add_edge(v, (v + 1) % 1200, BLUE).add_edge(v, (v + 1) % 1200, RED)
    code, out, _ = run(capsys, "factor", "--min-cycle-len", "4", write_graph(g))
    assert code == 0
    (line,) = out.splitlines()
    verts = line.split(" : ")[0].split()
    assert verts[0] == "cycle" and sorted(map(int, verts[1:])) == list(range(1200))


def test_factor_min_cycle_len_without_a_factor_skips_the_search(capsys, write_graph, monkeypatch):
    def exhaustive(*args, **kwargs):
        raise AssertionError("oracle_factor ran")

    monkeypatch.setattr("altcycles.oracles.oracle_factor", exhaustive)
    g = ac.empty(4)
    g.add_edge(0, 1, BLUE).add_edge(1, 2, RED).add_edge(2, 3, BLUE)
    code, out, _ = run(capsys, "factor", "--min-cycle-len", "4", write_graph(g))
    assert code == 1 and out == "none\n"


def test_generate_roundtrip(capsys):
    code, out, _ = run(capsys, "generate", "--family", "complete-random", "--n", "6", "--seed", "9")
    assert code == 0
    assert ac.parse_text(out) == ac.gen_complete(6, 9)


def test_generate_closure(capsys):
    code, out, _ = run(capsys, "generate", "--family", "closure-2m", "--n", "7", "--seed", "3")
    assert code == 0
    assert ac.is_2m_closed(ac.parse_text(out))


def test_generate_counterexample(capsys):
    code, out, _ = run(capsys, "generate", "--family", "counterexample", "--k1", "2", "--k2", "2")
    assert code == 0
    g = ac.parse_text(out)
    assert ac.is_2nm_closed(g) and ac.oracle_hamiltonian(g) is None


@pytest.mark.parametrize(
    "argv, message",
    [
        (["complete-random", "--n", "0"], "n must be at least 1"),
        (["complete-random", "--n", "-2"], "n must be at least 1"),
        (["closure-2m", "--n", "-1"], "vertex count must be non-negative"),
        (
            ["closure-2m", "--n", str(MAX_VERTICES + 1), "--density", "0"],
            f"need --n <= {MAX_VERTICES}",
        ),
        (["counterexample", "--k1", "1"], "cycle half-lengths must be at least 2"),
        (
            ["counterexample", "--k1", "2500", "--k2", "2501"],
            f"need 2 * (k1 + k2) <= {MAX_VERTICES}",
        ),
        *(
            (["closure-2m", "--density", d], "density must be between 0 and 1")
            for d in ("-0.1", "1.5", "nan", "inf")
        ),
    ],
    ids=[
        "complete-0", "complete-neg", "closure-neg", "closure-over-max", "k1-1", "k-over-max",
        "density-neg", "density-over-1", "density-nan", "density-inf",
    ],
)
def test_generate_rejects_out_of_range_sizes(capsys, argv, message):
    code, out, err = run(capsys, "generate", "--family", *argv)
    assert code == 64 and out == ""
    assert err == f"error: {message}\n"


def test_oracle_commands(capsys, write_graph):
    path = write_graph(ring_graph())
    code, out, _ = run(capsys, "oracle", "hamiltonian", path)
    assert code == 0 and out.startswith("cycle ")
    code, out, _ = run(capsys, "oracle", "factor", path)
    assert code == 0
    g = ac.empty(2)
    g.add_edge(0, 1, BLUE)
    code, out, _ = run(capsys, "oracle", "hamiltonian", write_graph(g))
    assert code == 1 and out.strip() == "none"


def test_export_dot(capsys, write_graph):
    g = ac.empty(2)
    g.add_edge(0, 1, BLUE).add_edge(0, 1, RED)
    code, out, _ = run(capsys, "export-dot", write_graph(g))
    assert code == 0
    assert out == export_dot(g)
    assert "0 -- 1 [color=blue, style=solid];" in out
    assert "0 -- 1 [color=red, style=dashed];" in out
    assert out.startswith("graph g {")


def test_comment_hides_text_after_a_unicode_line_separator(capsys, tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("n 2\n# see\u2028e 0 1 B\n", encoding="utf-8")
    code, out, _ = run(capsys, "export-dot", str(path))
    assert code == 0
    assert out == export_dot(ac.empty(2)) and " -- " not in out


def test_usage_errors(capsys, tmp_path):
    assert run(capsys, "frobnicate")[0] == 64
    assert run(capsys, "check", str(tmp_path / "g.txt"))[0] == 64  # missing --predicate
    assert run(capsys, "solve", str(tmp_path / "missing.txt"))[0] == 64


def test_parse_error_exit(capsys, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("n 2\ne 0 9 B\n")
    code, _, err = run(capsys, "solve", str(bad))
    assert code == 65
    assert "parse error" in err
    bad.write_text(f"n {MAX_VERTICES + 1}\n")
    code, out, err = run(capsys, "solve", str(bad))
    assert code == 65
    assert out == "" and len(err.splitlines()) == 1 and "parse error" in err


def test_directory_path_is_usage_error(capsys, tmp_path):
    code, out, err = run(capsys, "solve", str(tmp_path))
    assert code == 64
    assert out == "" and len(err.splitlines()) == 1 and err.startswith("error: ")


def test_non_utf8_file_is_parse_error(capsys, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"n 2\ne 0 1 B \xff\n")
    code, out, err = run(capsys, "solve", str(bad))
    assert code == 65
    assert out == "" and len(err.splitlines()) == 1 and "parse error" in err


def byte_stdin(data: bytes, errors: str = "strict") -> io.TextIOWrapper:
    """A text stdin over `data` whose `.buffer` holds the raw bytes."""
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", errors=errors)


def test_non_utf8_stdin_is_parse_error(capsys, monkeypatch):
    # decoded strictly, whatever error handler the locale gives stdin (the C
    # locale gives surrogateescape, which would accept the bytes in a comment)
    for errors in ("strict", "surrogateescape"):
        for data in (b"n 2\n# \xff\n", b"n 2\n# caf\xe9\ne 0 1 B\n"):
            monkeypatch.setattr("sys.stdin", byte_stdin(data, errors))
            code, out, err = run(capsys, "factor", "-")
            assert code == 65
            assert out == "" and len(err.splitlines()) == 1 and "parse error" in err


def test_stdin_input(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", byte_stdin(ac.serialize_text(ring_graph()).encode()))
    code, out, _ = run(capsys, "solve", "-")
    assert code == 0 and out.splitlines()[0] == "hamiltonian"


def test_solver_error_exits_70_without_traceback(capsys, write_graph):
    code, out, err = run(capsys, "solve", "--trace", write_graph(two_cycle_gap_graph()))
    assert code == 70
    assert out == ""
    assert err == "solver error: out-arcs of one cycle differ in color\n"
