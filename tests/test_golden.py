"""Exact `factor` and `solve` output on seeded graphs.

The expected text pins which factor and which Hamiltonian cycle are
printed, not only that one is, so a change to the matching or merge route
that alters the output shows up here.
"""
from __future__ import annotations

import pytest

import altcycles as ac
from altcycles.cli import main
from conftest import has_long_row

GRAPHS = {
    "complete-10-1": lambda: ac.gen_complete(10, 1),
    "complete-12-0": lambda: ac.gen_complete(12, 0),
    "complete-16-0": lambda: ac.gen_complete(16, 0),
    "complete-40-0": lambda: ac.gen_complete(40, 0),
    "closure-10-1": lambda: ac.closure_2m(ac.gen_random(10, 1, 0.35), 1),
    "closure-12-2": lambda: ac.closure_2m(ac.gen_random(12, 2, 0.3), 2),
    "closure-9-1": lambda: ac.closure_2m(ac.gen_random(9, 1, 0.4), 1),
}

GOLDEN = [
    ("complete-10-1", "factor", 0,
     "cycle 0 2 4 8 1 7 : B R B R B R\n"
     "cycle 3 5 9 6 : B R B R\n"),
    ("complete-10-1", "solve", 0,
     "hamiltonian\n"
     "cycle 0 3 6 9 5 2 4 8 1 7 : B R B R B R B R B R\n"),
    ("complete-12-0", "factor", 0,
     "cycle 0 9 2 10 : B R B R\n"
     "cycle 1 4 3 8 : B R B R\n"
     "cycle 5 7 6 11 : B R B R\n"),
    ("complete-12-0", "solve", 0,
     "hamiltonian\n"
     "cycle 5 3 4 9 2 10 0 1 8 7 6 11 : B R B R B R B R B R B R\n"),
    ("complete-16-0", "factor", 0,
     "cycle 0 14 1 15 : B R B R\n"
     "cycle 2 12 3 11 4 13 : B R B R B R\n"
     "cycle 5 10 7 8 9 6 : B R B R B R\n"),
    ("complete-16-0", "solve", 0,
     "hamiltonian\n"
     "cycle 5 4 11 3 12 2 13 0 15 1 14 10 7 8 9 6 : "
     "B R B R B R B R B R B R B R B R\n"),
    ("complete-40-0", "factor", 0,
     "cycle 0 38 39 1 3 2 : B R B R B R\n"
     "cycle 4 6 8 10 7 5 35 33 32 34 37 36 : " + "B R " * 5 + "B R\n"
     "cycle 9 12 13 11 : B R B R\n"
     "cycle 14 15 17 16 : B R B R\n"
     "cycle 18 20 21 22 24 30 31 28 27 26 29 25 23 19 : " + "B R " * 6 + "B R\n"),
    ("complete-40-0", "solve", 0,
     "hamiltonian\n"
     "cycle 9 18 19 23 25 29 26 27 28 31 30 24 22 21 20 0 2 3 1 39 38 35 5 7 10 8 6 4 36 37 "
     "34 32 33 16 14 15 17 12 13 11 : " + "B R " * 19 + "B R\n"),
    ("closure-10-1", "factor", 0,
     "cycle 0 9 2 7 : B R B R\n"
     "cycle 1 8 : B R\n"
     "cycle 3 6 5 4 : B R B R\n"),
    ("closure-10-1", "solve", 0,
     "hamiltonian\n"
     "cycle 3 1 8 9 2 7 0 6 5 4 : B R B R B R B R B R\n"),
    ("closure-12-2", "factor", 0,
     "cycle 0 4 10 1 8 9 : B R B R B R\n"
     "cycle 2 11 6 7 3 5 : B R B R B R\n"),
    ("closure-12-2", "solve", 0,
     "hamiltonian\n"
     "cycle 4 11 2 5 3 7 6 10 1 8 9 0 : R B R B R B R B R B R B\n"),
    ("closure-9-1", "factor", 1, "none\n"),
    ("closure-9-1", "solve", 2, "no-factor\n"),
]


@pytest.mark.parametrize(
    "name, command, code, expected", GOLDEN, ids=[f"{n}-{c}" for n, c, _, _ in GOLDEN]
)
def test_golden_output(capsys, tmp_path, name, command, code, expected):
    path = tmp_path / "g.txt"
    path.write_text(ac.serialize_text(GRAPHS[name]()))
    assert main([command, str(path)]) == code
    assert capsys.readouterr().out == expected


def test_a_pinned_graph_takes_the_greedy_matching():
    # no graph of at most LONG_ROW + 1 vertices takes it
    assert has_long_row(GRAPHS["complete-40-0"]())
