from __future__ import annotations

import pytest

import altcycles as ac
from altcycles import BLUE, RED
from altcycles.cli import export_dot, main
from conftest import not_color_connected_graph, ring


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
    # replay the certificate
    first = ac.Color.from_letter(start)
    for last in (BLUE, RED):
        assert ac.exists_alternating_path(g, int(vertex), int(target), first, last) is None


def test_solve_not_2m_closed(capsys, write_graph):
    g = ac.empty(3)
    g.add_edge(0, 1, RED).add_edge(1, 2, RED)
    code, out, _ = run(capsys, "solve", write_graph(g))
    assert code == 4
    assert out.splitlines()[0] == "not-2m-closed"


def test_solve_trace(capsys, write_graph):
    g, _ = not_color_connected_graph()
    code, out, _ = run(capsys, "solve", "--trace", write_graph(g))
    assert code == 3  # trace lines precede the verdict when merges happen


def test_factor(capsys, write_graph):
    g = ac.empty(8)
    ring(g, 0, 2)
    ring(g, 4, 2)
    code, out, _ = run(capsys, "factor", write_graph(g))
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


def test_non_utf8_stdin_is_parse_error(capsys, monkeypatch):
    import io

    stdin = io.TextIOWrapper(io.BytesIO(b"n 2\n# \xff\n"), encoding="utf-8")
    monkeypatch.setattr("sys.stdin", stdin)
    code, out, err = run(capsys, "factor", "-")
    assert code == 65
    assert out == "" and len(err.splitlines()) == 1 and "parse error" in err


def test_stdin_input(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(ac.serialize_text(ring_graph())))
    code, out, _ = run(capsys, "solve", "-")
    assert code == 0 and out.splitlines()[0] == "hamiltonian"
