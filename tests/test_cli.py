from __future__ import annotations

import io
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import altcycles as ac
from altcycles import BLUE, RED
from altcycles.cli import export_dot, main
from altcycles.generate import ConstructionFailed
from altcycles.graph import MAX_VERTICES
from altcycles.predicates import TwoPath
from conftest import (
    G8b,
    assert_no_alternating_path,
    blue_apex,
    both_colored_ring,
    gate_gadget,
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
    w = TwoPath(*map(int, lines[1].split()[2:]), BLUE, BLUE)
    assert w.holds_in(g) and w.endpoint_edge_missing(g)


def test_check_color_connected_deep_search(capsys, write_graph):
    # an alternating path 0, 1199, 1198, ..., 1: the first pair checked,
    # (0, 1), needs a search 1199 edges deep and has no blue-first path
    g = ac.empty(1200)
    for i in range(1, 1200):
        g.add_edge(i, (i + 1) % 1200, BLUE if i % 2 == 0 else RED)
    code, out, err = run(capsys, "check", "--predicate", "color-connected", write_graph(g))
    assert (code, err) == (1, "")
    assert out.splitlines()[:2] == ["false", "witness pair 0 1"]


def test_check_color_connected_target_without_a_red_edge(capsys, write_graph):
    # vertex 40 is joined to every other vertex in blue only, so no path
    # reaches it in red, and a search for one would walk every alternating
    # path of the complete coloring on the other 40. The pendant joins it to
    # vertex 1 alone, and once 1 is on the path the search tries 40 alone
    # next
    for neighbors in (None, (1,)):
        path = write_graph(blue_apex(40, 1, neighbors))
        code, out, err = run(capsys, "check", "--predicate", "color-connected", path)
        assert (code, err) == (1, "")
        assert out.splitlines()[:2] == ["false", "witness pair 0 40"]


def test_check_color_connected_gate_first_gadget(capsys, write_graph):
    # (0, 40) fails: no path enters the gate 40 in blue, since its blue
    # neighbors lie behind it. A search for one that did not test vertex 0's
    # own walks would list every alternating path of the complete coloring
    path = write_graph(gate_gadget(40, 1, gate_first=True))
    code, out, err = run(capsys, "check", "--predicate", "color-connected", path)
    assert (code, err) == (1, "")
    assert out.splitlines()[:2] == ["false", "witness pair 0 40"]


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


def test_two_path_checks_stop_at_the_first_witness(capsys, write_graph):
    """A 1,000-vertex star has up to about 500,000 open 2-paths; the
    predicates and `check` read the first and keep none of the rest."""
    n = 1000
    blue, mixed = ac.empty(n), ac.empty(n)
    for v in range(1, n):
        blue.add_edge(0, v, BLUE)
        mixed.add_edge(0, v, BLUE if v % 2 else RED)
    paths = {"blue": write_graph(blue, "blue.txt"), "mixed": write_graph(mixed, "mixed.txt")}
    cases = [
        (lambda: ac.is_2m_closed(blue), False),
        (lambda: ac.is_2nm_closed(mixed), False),
        (lambda: ac.is_2nm_closed(blue), True),
    ]
    for star, predicate, code, out in (
        ("blue", "2m-closed", 1, "false\nwitness 2path 1 0 2\n"),
        ("blue", "2nm-closed", 0, "true\n"),
        ("mixed", "2m-closed", 1, "false\nwitness 2path 1 0 3\n"),
        ("mixed", "2nm-closed", 1, "false\nwitness 2path 1 0 2\n"),
    ):
        argv = ("check", "--predicate", predicate, paths[star])
        cases.append((lambda argv=argv: run(capsys, *argv), (code, out, "")))
    for call, expected in cases:
        tracemalloc.start()
        try:
            got = call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == expected
        # parsing the 10-KB file takes about 150 KB; every open 2-path, 30-60 MB
        assert peak < 2**20


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
    # with no vertices there is no factor either, as `solve` says (no-factor)
    for g in (ac.empty(2).add_edge(0, 1, BLUE), ac.empty(0)):
        for argv in (["factor"], ["factor", "--min-cycle-len", "4"], ["oracle", "factor"]):
            code, out, _ = run(capsys, *argv, write_graph(g))
            assert code == 1 and out == "none\n"


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
    # the oracles recurse once per vertex, and 1200-vertex rings, alternating
    # or both-colored, are deeper than Python's recursion limit
    for g in (ring_graph(600), both_colored_ring(1200)):
        code, out, err = run(capsys, *argv, write_graph(g))
        assert code == 70
        assert out == ""
        assert err == "error: exhaustive search exceeded the recursion limit\n"


def test_closed_stdout_pipe_exits_74_without_a_traceback(write_graph):
    # the pipe's read end is closed before the process starts, as `| head`
    # closes it early, so the first write fails with EPIPE
    path = write_graph(ac.gen_complete(40, 1))
    env = {**os.environ, "PYTHONPATH": str(Path(ac.__file__).resolve().parents[1])}
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "altcycles.cli", "solve", path],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=env,
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (74, b"")


def test_oracle_factor_recurses_once_per_chosen_pair(capsys, write_graph):
    # 600 frames, one per partner pair; one frame per slot (1,200) was too deep
    code, out, err = run(capsys, "oracle", "factor", write_graph(both_colored_ring(600)))
    assert (code, err) == (0, "")
    assert out == "".join(f"cycle {v} {v + 1} : B R\n" for v in range(0, 600, 2))


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
    path = write_graph(both_colored_ring(1200))
    code, out, _ = run(capsys, "factor", "--min-cycle-len", "4", path)
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


def test_generate_construction_failure_exits_1(capsys, monkeypatch):
    def failing(k1, k2):
        raise ConstructionFailed("x")

    monkeypatch.setattr("altcycles.generate.gen_counterexample", failing)
    code, out, err = run(capsys, "generate", "--family", "counterexample")
    assert (code, out, err) == (1, "", "construction failed: x\n")


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
