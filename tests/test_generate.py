from __future__ import annotations

import random

import pytest

import altcycles as ac
import altcycles.generate
from altcycles import BLUE, RED
from altcycles.generate import ConstructionFailed, counterexample_cycles
from altcycles.graph import MAX_VERTICES, reachable


def test_gen_complete_shape_and_determinism():
    g = ac.gen_complete(6, 42)
    assert g.n == 6
    # exactly one color per pair
    for u in range(6):
        for v in range(u + 1, 6):
            assert g.has_edge_color(u, v, BLUE) != g.has_edge_color(u, v, RED)
    assert g == ac.gen_complete(6, 42)
    assert g != ac.gen_complete(6, 43)
    for n in (0, -2):
        with pytest.raises(ValueError, match="^n must be at least 1$"):
            ac.gen_complete(n, 0)


def test_gen_random_density_and_determinism():
    g = ac.gen_random(8, 7, 0.5)
    assert g == ac.gen_random(8, 7, 0.5)
    assert ac.gen_random(8, 7, 0.0).edge_count() == 0
    full = ac.gen_random(8, 7, 1.0)
    assert full.edge_count() == 2 * 8 * 7 // 2  # both colors on every pair
    for density in (-1, float("nan"), 1.5, float("inf")):
        with pytest.raises(ValueError):
            ac.gen_random(8, 7, density)


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


def counterexample_by_closure(k1, k2):
    """The family as first built: the two alternating cycles, the four red
    edges across blocks {0, 1} and {2*k1, 2*k1 + 1}, then red chords for the
    first 2-NM violation until none is left."""
    g = ac.empty(2 * (k1 + k2))
    for cycle in counterexample_cycles(k1, k2):
        m = len(cycle)
        for i in range(m):
            g.add_edge(cycle.vertices[i], cycle.vertices[(i + 1) % m], cycle.colors[i])
    for u in (0, 1):
        for v in (2 * k1, 2 * k1 + 1):
            g.add_edge(u, v, RED)
    while violations := ac.two_nm_violations(g):
        g.add_edge(violations[0].x1, violations[0].x3, RED)
    return g


def test_counterexample_closed_form_matches_the_closure_loop():
    for k1 in range(2, 17):
        for k2 in range(2, 17):
            assert ac.gen_counterexample(k1, k2) == counterexample_by_closure(k1, k2), (k1, k2)


def block_graph(blocks, red_pairs):
    """Blue edges {2i, 2i+1}; red edges on the given vertex pairs."""
    g = ac.empty(2 * blocks)
    for b in range(blocks):
        g.add_edge(2 * b, 2 * b + 1, BLUE)
    for u, v in red_pairs:
        g.add_edge(u, v, RED)
    return g


def test_block_lemmas_against_exhaustive_search():
    """The generator's two self-checks, on random graphs of blocks:
    (A) with every link complete, connected is color-connected;
    (B) with arbitrary red edges, a cut block leaves no alternating
    Hamiltonian cycle."""
    rng = random.Random(14)
    verdicts = {True: 0, False: 0}
    for _ in range(2000):
        blocks = rng.randint(2, 6)
        links = [(a, b) for a in range(blocks) for b in range(a + 1, blocks) if rng.random() < 0.4]
        g = block_graph(
            blocks, [(2 * a + i, 2 * b + j) for a, b in links for i in (0, 1) for j in (0, 1)]
        )
        connected = reachable(g, 0) == (1 << g.n) - 1
        assert connected == ac.is_color_connected(g), ac.serialize_text(g)
        verdicts[connected] += 1
    cut_cases = 0
    for _ in range(2000):
        blocks = rng.randint(3, 6)
        n = 2 * blocks
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.35]
        g = block_graph(blocks, pairs)
        full = (1 << n) - 1
        for b in range(blocks):
            block = 0b11 << 2 * b
            start = 2 * ((b + 1) % blocks)
            if reachable(g, start, avoid=block) | block != full:
                assert ac.oracle_hamiltonian(g) is None, ac.serialize_text(g)
                cut_cases += 1
    assert min(verdicts.values()) > 500 and cut_cases > 300


def test_counterexample_self_check_rejects_a_red_edge_inside_a_block(monkeypatch):
    def empty_with_red_block(n):
        return ac.empty(n).add_edge(0, 1, RED)

    monkeypatch.setattr(altcycles.generate, "empty", empty_with_red_block)
    with pytest.raises(ConstructionFailed):
        ac.gen_counterexample(3, 3)


def test_counterexample_at_the_vertex_limit():
    g = ac.gen_counterexample(2500, 2500)
    assert g.n == MAX_VERTICES
    # a blue edge per block, four red edges per link: 5000 ring links and one more
    assert g.edge_count() == 5000 + 4 * 5001
    for k1, k2 in ((1, 2), (2, 1)):  # and below the smallest ring
        with pytest.raises(ValueError, match="^cycle half-lengths must be at least 2$"):
            ac.gen_counterexample(k1, k2)
