from __future__ import annotations

import pytest

import altcycles as ac
from altcycles import BLUE, RED
from altcycles.generate import ConstructionFailed, counterexample_cycles


def test_gen_complete_shape_and_determinism():
    g = ac.gen_complete(6, 42)
    assert g.n == 6
    # exactly one color per pair
    for u in range(6):
        for v in range(u + 1, 6):
            assert g.has_edge_color(u, v, BLUE) != g.has_edge_color(u, v, RED)
    assert g == ac.gen_complete(6, 42)
    assert g != ac.gen_complete(6, 43)


def test_gen_random_density_and_determinism():
    g = ac.gen_random(8, 7, 0.5)
    assert g == ac.gen_random(8, 7, 0.5)
    assert ac.gen_random(8, 7, 0.0).edge_count() == 0
    full = ac.gen_random(8, 7, 1.0)
    assert full.edge_count() == 2 * 8 * 7 // 2  # both colors on every pair


def test_closure_2m_output_closed_and_fixpoint():
    for seed in range(25):
        g = ac.gen_random(7, seed, 0.4)
        closed = ac.closure_2m(g, seed)
        assert ac.is_2m_closed(closed)
        assert ac.closure_2m(closed, seed) == closed
        # supergraph of the input
        for u, v, c in g.edges():
            assert closed.has_edge_color(u, v, c)


def test_closure_2m_fixed_color_policy():
    g = ac.empty(3)
    g.add_edge(0, 1, BLUE).add_edge(1, 2, BLUE)
    closed = ac.closure_2m(g, color="R")
    assert closed.has_edge_color(0, 2, RED)
    closed_b = ac.closure_2m(g, color="B")
    assert closed_b.has_edge_color(0, 2, BLUE)
    with pytest.raises(ValueError):
        ac.closure_2m(g, color="purple")


def test_closure_2m_deterministic():
    g = ac.gen_random(8, 3, 0.3)
    assert ac.closure_2m(g, 5) == ac.closure_2m(g, 5)


def test_counterexample_cycles_shape():
    c1, c2 = counterexample_cycles(2, 3)
    assert len(c1) == 4 and len(c2) == 6
    assert c1.well_formed() and c2.well_formed()
    assert c1.vertex_set() | c2.vertex_set() == set(range(10))
    assert not (c1.vertex_set() & c2.vertex_set())


@pytest.mark.parametrize("k1", [2, 3])
@pytest.mark.parametrize("k2", [2, 3])
def test_counterexample_properties(k1, k2):
    g = ac.gen_counterexample(k1, k2)
    assert g.n == 2 * (k1 + k2)
    assert ac.is_2nm_closed(g)
    assert ac.is_color_connected(g)
    factor = ac.find_alternating_cycle_factor(g)
    assert factor is not None and ac.validate_factor(g, factor)
    assert ac.oracle_hamiltonian(g) is None
    # the family lives strictly outside the solvable class
    assert not ac.is_2m_closed(g)
