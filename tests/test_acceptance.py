"""End-to-end acceptance checks at desk scale.

Each test prints one PASS line on success; pytest -v adds the per-test
verdicts. The corpus is deterministic (seeded), so failures replay.
"""

from __future__ import annotations

import pytest

import altcycles as ac
from altcycles import BLUE, RED, HamiltonianCycle, NotColorConnected
from altcycles.merge import merge_good_pair
from conftest import assert_no_alternating_path, not_color_connected_graph, small_corpus


@pytest.fixture(scope="module")
def corpus():
    """500 deterministic 2-M-closed graphs with 4 <= n <= 10, half complete
    colorings and half closed-up sparse graphs, each solved once."""
    return [(g, ac.solve_hamiltonian(g)) for g in small_corpus(500, range(4, 11))]


def test_criterion_1_equivalence(corpus):
    for g, result in corpus:
        assert ac.is_2m_closed(g)
        solved = isinstance(result, HamiltonianCycle)
        factor = ac.find_alternating_cycle_factor(g)
        structural = factor is not None and ac.is_color_connected(g)
        oracle = ac.oracle_hamiltonian(g) is not None
        assert solved == structural == oracle, ac.serialize_text(g)
        if solved:
            assert ac.validate_factor(g, [result.cycle])
    print(f"\nPASS criterion 1: solver/structure/oracle agree on {len(corpus)} graphs")


def test_criterion_2_counterexample_family():
    # both orders up to k = 4, and every k1 <= k2 up to 32 vertices
    cases = sorted(
        {(k1, k2) for k1 in (2, 3, 4) for k2 in (2, 3, 4)}
        | {(k1, k2) for k1 in range(2, 9) for k2 in range(k1, 17 - k1)}
    )
    for k1, k2 in cases:
        g = ac.gen_counterexample(k1, k2)
        assert ac.is_2nm_closed(g), (k1, k2)
        assert ac.is_color_connected(g), (k1, k2)
        factor = ac.find_alternating_cycle_factor(g)
        assert factor is not None and ac.validate_factor(g, factor), (k1, k2)
        assert ac.oracle_hamiltonian(g) is None, (k1, k2)
    # color-connectivity at 96 vertices, past the exhaustive oracle's reach:
    # the path search finds each path without walking the 2^24 equivalent
    # dead branches around the rings
    assert ac.is_color_connected(ac.gen_counterexample(24, 24))
    print(f"\nPASS criterion 2: all {len(cases)} counterexample instances verified")


def test_criterion_3_factor_reduction():
    checked = 0
    for seed in range(10200):
        n = 2 + seed % 5  # n in 2..6
        g = ac.gen_random(n, seed, 0.2 + 0.6 * ((seed // 5) % 10) / 9)
        fast = ac.find_alternating_cycle_factor(g)
        slow = ac.oracle_factor(g)
        assert (fast is None) == (slow is None), ac.serialize_text(g)
        if fast is not None:
            assert ac.validate_factor(g, fast), ac.serialize_text(g)
        checked += 1
    for seed in range(300):
        n = 7 + seed % 3  # n in 7..9
        g = ac.gen_random(n, 20000 + seed, 0.4)
        fast = ac.find_alternating_cycle_factor(g)
        slow = ac.oracle_factor(g)
        assert (fast is None) == (slow is None), ac.serialize_text(g)
        if fast is not None:
            assert ac.validate_factor(g, fast), ac.serialize_text(g)
        checked += 1
    print(f"\nPASS criterion 3: matching reduction agrees with oracle on {checked} graphs")


def test_criterion_4_good_pair_merges(corpus):
    merges = 0
    for g, _result in corpus:
        factor = ac.find_alternating_cycle_factor(g)
        if factor is None or len(factor) < 2:
            continue
        cycles = list(factor)
        for i in range(len(cycles)):
            for j in range(i + 1, len(cycles)):
                merged = merge_good_pair(g, cycles[i], cycles[j])
                if merged is None:
                    continue
                assert merged.well_formed()
                assert ac.validate_cycle(g, merged)
                assert len(merged) == len(cycles[i]) + len(cycles[j])
                assert set(merged.vertices) == (
                    set(cycles[i].vertices) | set(cycles[j].vertices)
                )
                merges += 1
    assert merges > 0
    print(f"\nPASS criterion 4: {merges} good-pair merges sound")


def test_criterion_5_certificates(corpus):
    planted = [(not_color_connected_graph()[0], None)]
    planted[0] = (planted[0][0], ac.solve_hamiltonian(planted[0][0]))
    certs = 0
    for g, result in list(corpus) + planted:
        if not isinstance(result, NotColorConnected):
            continue
        cert = result.certificate
        assert_no_alternating_path(g, cert.vertex, cert.target, cert.start_color)
        certs += 1
    assert certs > 0
    print(f"\nPASS criterion 5: {certs} non-connectivity certificates replayed")


def test_criterion_6_path_search_exactness():
    graphs = 0
    for seed in range(220):
        n = 2 + seed % 8  # n in 2..9
        density = 0.5 if n <= 6 else 0.3
        g = ac.gen_random(n, 30000 + seed, density)
        for x in range(n):
            for y in range(x + 1, n):
                for first in (BLUE, RED):
                    for last in (BLUE, RED):
                        fast = ac.exists_alternating_path(g, x, y, first, last)
                        slow = ac.oracle_alt_path(g, x, y, first, last)
                        assert (fast is None) == (slow is None), (
                            ac.serialize_text(g),
                            x,
                            y,
                            first,
                            last,
                        )
                        if fast is not None:
                            assert fast.holds_in(g)
                            assert fast.colors[0] is first
                            assert fast.colors[-1] is last
        graphs += 1
    print(f"\nPASS criterion 6: path search exact on {graphs} graphs, all pairs")


def test_criterion_7_closure_operator():
    checked = 0
    for seed in range(210):
        n = 3 + seed % 7
        g = ac.gen_random(n, 40000 + seed, 0.2 + 0.5 * (seed % 7) / 6)
        for policy in ("random", "B", "R"):
            closed = ac.closure_2m(g, seed, policy)
            assert ac.is_2m_closed(closed)
            assert ac.closure_2m(closed, seed, policy) == closed
            for u, v, c in g.edges():
                assert closed.has_edge_color(u, v, c)
        checked += 1
    print(f"\nPASS criterion 7: closure closed and idempotent on {checked} inputs")
