from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

import altcycles as ac
from altcycles import BLUE, RED, AltCycle
from altcycles.cycles import cycle_from_vertex_sequence
from conftest import ring


def alt_colors(length: int, first) -> tuple:
    return tuple(first if i % 2 == 0 else first.other for i in range(length))


C6 = AltCycle((0, 1, 2, 3, 4, 5), alt_colors(6, BLUE))


def test_position_classes():
    assert C6.i_set == {0, 2, 4}
    assert C6.p_set == {1, 3, 5}
    assert set(C6.vertices) == set(range(6))
    assert len(C6) == 6


def test_reverse_keeps_first_vertex_and_classes():
    r = C6.reverse()
    assert r.vertices == (0, 5, 4, 3, 2, 1)
    assert r.colors == alt_colors(6, RED)
    assert r.i_set == C6.i_set
    assert r.p_set == C6.p_set
    assert r.reverse() == C6


def test_rotate():
    r = C6.rotate(2)
    assert r.vertices == (2, 3, 4, 5, 0, 1)
    assert r.colors == alt_colors(6, BLUE)
    assert C6.rotate(6) == C6
    assert C6.rotate(1).rotate(5) == C6


def test_well_formed():
    assert C6.well_formed()
    assert AltCycle((0, 1), (BLUE, RED)).well_formed()
    assert not AltCycle((0, 1, 2, 3), (BLUE, BLUE, BLUE, RED)).well_formed()
    assert not AltCycle((0, 1, 2, 0), alt_colors(4, BLUE)).well_formed()
    assert not AltCycle((0, 1, 2), (BLUE, RED, BLUE)).well_formed()


def test_rejects_mismatched_lengths():
    with pytest.raises(ValueError):
        AltCycle((0, 1, 2, 3), (BLUE, RED))


def test_validate_cycle():
    g = ac.empty(6)
    c = ring(g, 0, 3)
    assert ac.validate_cycle(g, c)
    assert ac.validate_cycle(g, c.rotate(2))
    assert ac.validate_cycle(g, c.reverse())
    # an edge missing from the graph
    assert not ac.validate_cycle(g, AltCycle((0, 1, 2, 5), alt_colors(4, BLUE)))
    # wrong color on an existing edge
    assert not ac.validate_cycle(g, AltCycle(c.vertices, alt_colors(6, RED)))
    # a vertex outside the graph
    g4 = ac.empty(4)
    ring(g4, 0, 2)
    for outside in ((0, 1, 2, 9), (0, 1, 2, -1)):
        assert not ac.validate_cycle(g4, AltCycle(outside, alt_colors(4, BLUE)))


def test_validate_factor():
    g = ac.empty(8)
    c1 = ring(g, 0, 2)
    c2 = ring(g, 4, 2)
    assert ac.validate_factor(g, (c1, c2))
    # missing a vertex
    assert not ac.validate_factor(g, (c1,))
    # overlapping cycles
    assert not ac.validate_factor(g, (c1, c1, c2))


def test_cycle_from_vertex_sequence_infers_colors():
    g = ac.empty(4)
    c = ring(g, 0, 2, first=RED)
    got = cycle_from_vertex_sequence(g, [0, 1, 2, 3])
    assert got == c
    assert cycle_from_vertex_sequence(g, [0, 2, 1, 3]) is None
    assert cycle_from_vertex_sequence(g, [0, 1, 2]) is None  # odd length
    # a vertex outside the graph rejects the cycle, as in validate_cycle
    assert cycle_from_vertex_sequence(g, [0, 1, 2, 9]) is None
    assert cycle_from_vertex_sequence(g, [0, 1, 2, -1]) is None
    # a parallel 2-cycle is a valid alternating cycle
    h = ac.empty(2)
    h.add_edge(0, 1, BLUE).add_edge(0, 1, RED)
    two = cycle_from_vertex_sequence(h, [0, 1])
    assert two is not None and ac.validate_cycle(h, two)


@given(
    half=st.integers(min_value=1, max_value=5),
    k=st.integers(min_value=0, max_value=9),
    first_blue=st.booleans(),
)
def test_rotation_by_even_preserves_classes(half, k, first_blue):
    n = 2 * half
    c = AltCycle(tuple(range(n)), alt_colors(n, BLUE if first_blue else RED))
    r = c.rotate((2 * k) % n)
    assert r.i_set == c.i_set
    assert r.p_set == c.p_set
    assert r.rotate(n - (2 * k) % n) == c
