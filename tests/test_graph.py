from __future__ import annotations

import tracemalloc

import pytest
from hypothesis import given, strategies as st

import altcycles as ac
from altcycles import BLUE, RED
from altcycles.graph import (
    MAX_VERTICES,
    Color,
    LoopError,
    OutOfRangeError,
    ParseError,
    induced_subgraph,
)


def test_color_other_and_letters():
    assert BLUE.other is RED
    assert RED.other is BLUE
    assert Color.from_letter("B") is BLUE
    assert Color.from_letter("R") is RED
    with pytest.raises(ValueError):
        Color.from_letter("G")


def test_add_edge_basic():
    g = ac.empty(3)
    assert g.add_edge(0, 1, BLUE) is g
    assert g.has_edge_color(0, 1, BLUE)
    assert g.has_edge_color(1, 0, BLUE)
    assert not g.has_edge_color(0, 1, RED)
    assert g.has_edge_any(0, 1)
    assert not g.has_edge_any(0, 2)
    g.add_edge(1, 0, RED)
    assert g.edge_colors(0, 1) == {BLUE, RED}
    assert g.edge_count() == 2


def test_add_edge_idempotent():
    g = ac.empty(2)
    g.add_edge(0, 1, BLUE)
    g.add_edge(0, 1, BLUE)
    assert g.edge_count() == 1


def test_add_edge_rejects_loops_and_bad_vertices():
    g = ac.empty(2)
    with pytest.raises(LoopError):
        g.add_edge(0, 0, BLUE)
    with pytest.raises(OutOfRangeError):
        g.add_edge(0, 2, BLUE)
    with pytest.raises(OutOfRangeError):
        g.add_edge(-1, 0, RED)


def test_neighbors():
    g = ac.empty(4)
    g.add_edge(0, 1, BLUE).add_edge(0, 2, RED).add_edge(0, 2, BLUE)
    assert g.neighbors_by_color(0, BLUE) == {1, 2}
    assert g.neighbors_by_color(0, RED) == {2}
    assert g.neighbors_any(0) == {1, 2}
    assert g.neighbors_any(3) == set()


def test_edges_sorted():
    g = ac.empty(3)
    g.add_edge(2, 1, RED).add_edge(1, 0, BLUE).add_edge(1, 2, BLUE)
    assert g.edges() == [(0, 1, BLUE), (1, 2, BLUE), (1, 2, RED)]


def test_copy_and_eq():
    g = ac.empty(3)
    g.add_edge(0, 1, BLUE)
    h = g.copy()
    assert g == h
    h.add_edge(1, 2, RED)
    assert g != h
    assert g != ac.empty(4)


def test_induced_subgraph():
    g = ac.empty(5)
    g.add_edge(0, 3, BLUE).add_edge(3, 4, RED).add_edge(0, 1, BLUE)
    sub, labels = induced_subgraph(g, [4, 0, 3])
    assert labels == [0, 3, 4]
    assert sub.n == 3
    assert sub.has_edge_color(0, 1, BLUE)  # old (0, 3)
    assert sub.has_edge_color(1, 2, RED)  # old (3, 4)
    assert sub.edge_count() == 2


def test_parse_text():
    text = "# comment\nn 3\ne 0 1 B\n\ne 1 2 R\n"
    g = ac.parse_text(text)
    assert g.n == 3
    assert g.has_edge_color(0, 1, BLUE)
    assert g.has_edge_color(1, 2, RED)


@pytest.mark.parametrize(
    "text",
    [
        "e 0 1 B\n",  # edge before header
        "n x\n",
        "n 2\ne 0 1 G\n",
        "n 2\ne 0 5 B\n",
        "n 2\ne 0 0 B\n",
        "n 2\nq 0 1\n",
        "n 2\ne 0 B\n",
        f"n {MAX_VERTICES + 1}\n",  # rejected before any allocation
        "n 100001\n",  # the former limit + 1: far above the limit
    ],
)
def test_parse_errors(text):
    with pytest.raises(ParseError):
        ac.parse_text(text)


def test_mask_memory_at_vertex_limit():
    # the widest masks per byte of input: every vertex joined to the last
    # one in both colors, so n - 1 masks are n bits wide
    n = MAX_VERTICES
    text = f"n {n}\n" + "".join(f"e {v} {n - 1} B\ne {v} {n - 1} R\n" for v in range(n - 1))
    tracemalloc.start()
    try:
        g = ac.parse_text(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert g.edge_count() == 2 * (n - 1)
    assert peak < 40 * 2**20


def test_parse_error_reports_line():
    with pytest.raises(ParseError) as exc:
        ac.parse_text("n 2\ne 0 1 B\ne 0 1 X\n")
    assert exc.value.line_no == 3


@given(
    n=st.integers(min_value=0, max_value=8),
    picks=st.lists(
        st.tuples(st.integers(0, 7), st.integers(0, 7), st.booleans()),
        max_size=20,
    ),
)
def test_serialize_parse_roundtrip(n, picks):
    g = ac.empty(n)
    for u, v, blue in picks:
        if u != v and u < n and v < n:
            g.add_edge(u, v, BLUE if blue else RED)
    assert ac.parse_text(ac.serialize_text(g)) == g


def test_serialize_deterministic():
    g = ac.empty(3)
    g.add_edge(2, 0, RED).add_edge(0, 1, BLUE).add_edge(0, 2, BLUE)
    h = ac.empty(3)
    h.add_edge(0, 1, BLUE).add_edge(0, 2, BLUE).add_edge(0, 2, RED)
    assert ac.serialize_text(g) == ac.serialize_text(h)
