from __future__ import annotations

import gc
import random
import tracemalloc
from itertools import combinations

import pytest

import altcycles as ac
from altcycles import BLUE, RED, factor
from conftest import (
    bench_pool_graphs,
    complete_coloring,
    has_long_row,
    planted_instance,
    ring,
)


def brute_max_matching_size(edges, nodes):
    """Largest set of pairwise disjoint edges, by exhaustive search."""
    best = 0
    uniq = list(set(frozenset(e) for e in edges))
    for k in range(len(uniq), 0, -1):
        if k <= best:
            break
        for pick in combinations(uniq, k):
            if len(set().union(*pick)) == 2 * k:
                best = k
                break
    return best


def test_maximum_matching_matches_brute_force():
    import random

    rng = random.Random(7)
    for trial in range(30):
        n = rng.randint(2, 8)
        nodes = list(range(n))
        edges = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < 0.4
        ]
        partner = factor.maximum_matching(edges, n)
        assert len(partner) == n
        matched = [v for v in nodes if partner[v] is not None]
        assert all(partner[partner[v]] == v for v in matched)
        assert all(tuple(sorted((v, partner[v]))) in edges for v in matched)
        assert len(matched) == 2 * brute_max_matching_size(edges, nodes)


def cyclic_garbage(call) -> int:
    """Bytes that `call` leaves for a full collection to free."""
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        call()
        before = tracemalloc.get_traced_memory()[0]
        gc.collect()
        return before - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
        gc.enable()


def test_factor_leaves_little_cyclic_garbage():
    # networkx's cached views make its graph a reference cycle; whatever of
    # it outlives the call waits for a full collection. The dense factor
    # takes the greedy tier, so networkx is measured on the color's edges
    g = ac.gen_complete(100, 0)
    blue = [(u, v) for u, v, c in g.edges() if c is BLUE]
    assert cyclic_garbage(lambda: ac.find_alternating_cycle_factor(g)) < 350_000
    assert cyclic_garbage(lambda: factor.maximum_matching(blue, g.n)) < 350_000


def test_factor_on_disjoint_rings():
    g = ac.empty(10)
    ring(g, 0, 3)
    ring(g, 6, 2)
    f = ac.find_alternating_cycle_factor(g)
    assert f is not None and ac.validate_factor(g, f)
    assert sorted(len(c) for c in f) == [4, 6]


def test_factor_uses_parallel_two_cycles():
    g = ac.empty(2)
    g.add_edge(0, 1, BLUE).add_edge(0, 1, RED)
    f = ac.find_alternating_cycle_factor(g)
    assert f is not None and ac.validate_factor(g, f)
    assert len(f) == 1 and len(next(iter(f))) == 2


def test_factor_none_cases():
    # odd vertex count
    g = ac.empty(3)
    g.add_edge(0, 1, BLUE).add_edge(1, 2, RED).add_edge(0, 2, BLUE)
    assert ac.find_alternating_cycle_factor(g) is None
    # a vertex missing one color entirely
    h = ac.empty(4)
    ring(h, 0, 2)
    h2 = ac.empty(4)
    h2.add_edge(0, 1, BLUE).add_edge(1, 2, BLUE).add_edge(2, 3, BLUE).add_edge(3, 0, BLUE)
    assert ac.find_alternating_cycle_factor(h) is not None
    assert ac.find_alternating_cycle_factor(h2) is None


def test_factor_agrees_with_oracle_randomly():
    for seed in range(250):
        n = 2 + seed % 6
        g = ac.gen_random(n, seed, 0.5)
        fast = ac.find_alternating_cycle_factor(g)
        slow = ac.oracle_factor(g)
        assert (fast is None) == (slow is None)
        if fast is not None:
            assert ac.validate_factor(g, fast)
            assert ac.validate_factor(g, slow)
            # decode order, which `factor` prints as is: cycles by ascending
            # smallest vertex, each starting there with a blue edge
            for factor in (fast, slow):
                starts = [c.vertices[0] for c in factor]
                assert starts == sorted(starts)
                assert all(c.vertices[0] == min(c.vertices) for c in factor)
                assert all(c.colors[0] is BLUE for c in factor)


def test_oracle_factor_min_cycle_length():
    g = ac.empty(2)
    g.add_edge(0, 1, BLUE).add_edge(0, 1, RED)
    assert ac.oracle_factor(g) is not None
    assert ac.oracle_factor(g, allow_two_cycles=False) is None
    h = ac.empty(4)
    ring(h, 0, 2)
    f = ac.oracle_factor(h, allow_two_cycles=False)
    assert f is not None and ac.validate_factor(h, f)


def test_factor_without_two_cycles_only_where_one_exists():
    found = refuted = 0
    for seed in range(400):
        g = ac.gen_random(4 + 2 * (seed % 4), seed, 0.6)
        plain = ac.find_alternating_cycle_factor(g)
        if not plain or all(len(c) > 2 for c in plain):
            continue
        f = ac.find_factor_without_two_cycles(g)
        exhaustive = ac.oracle_factor(g, allow_two_cycles=False)
        if f is not None:
            assert ac.validate_factor(g, f)
            assert all(len(c) > 2 for c in f)
            assert exhaustive is not None
            found += 1
        refuted += exhaustive is None
    assert found and refuted  # both outcomes occur among these seeds


def test_factor_without_two_cycles_none_without_a_factor():
    g = ac.empty(4)
    g.add_edge(0, 1, BLUE).add_edge(1, 2, RED).add_edge(2, 3, BLUE)
    assert ac.find_factor_without_two_cycles(g) is None


def odd_component_graph(case: str):
    """2-M-closed graphs whose blue or red edges leave a component of odd
    order, so that neither a factor nor a solve needs a matching."""
    if case == "odd-order":
        return ac.gen_complete(7, 3)
    if case == "no-red-edge-at-0":
        return complete_coloring(6, "BBBBB" + "RBRBRRBRBR")
    # even order, two blue triangles joined by a red perfect matching
    g = ac.empty(6)
    for a, b in [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]:
        g.add_edge(a, b, BLUE)
    for a, b in [(0, 3), (1, 4), (2, 5)]:
        g.add_edge(a, b, RED)
    return g


@pytest.mark.parametrize("case", ["odd-order", "no-red-edge-at-0", "blue-triangles"])
def test_odd_component_decides_no_factor_before_the_matcher(monkeypatch, case):
    g = odd_component_graph(case)
    assert ac.is_2m_closed(g)
    assert ac.oracle_factor(g) is None

    def matcher_called(edges, n):
        raise AssertionError("maximum_matching called")

    monkeypatch.setattr(factor, "maximum_matching", matcher_called)
    assert ac.find_alternating_cycle_factor(g) is None
    assert ac.find_factor_without_two_cycles(g) is None
    assert ac.solve_hamiltonian(g) == ac.NoFactor()


@pytest.mark.parametrize("color", ["B", "R", "random"])
def test_factor_existence_matches_oracle_on_closures(color):
    """Factor existence against the exhaustive oracle on 2-M closures of
    random graphs, n <= 10, odd orders included; both the screen's None and
    the matcher's decide some of them."""
    screened = matched = found = 0
    for seed in range(150):
        n = 2 + seed % 9
        g = ac.closure_2m(ac.gen_random(n, seed, 0.1 + 0.3 * (seed % 4) / 3), seed, color)
        fast = ac.find_alternating_cycle_factor(g)
        assert (fast is None) == (ac.oracle_factor(g) is None), ac.serialize_text(g)
        if fast is not None:
            assert ac.validate_factor(g, fast)
            found += 1
        elif factor._odd_component(g, BLUE) or factor._odd_component(g, RED):
            screened += 1
        else:
            matched += 1
    assert screened and matched and found


def record_matchings(monkeypatch):
    """Replace `factor.maximum_matching` by a wrapper that records, per
    call, the edge count and whether the matching was perfect."""
    calls = []
    real = factor.maximum_matching

    def recorded(edges, n):
        partner = real(edges, n)
        calls.append((len(edges), None not in partner))
        return partner

    monkeypatch.setattr(factor, "maximum_matching", recorded)
    return calls


def test_greedy_matching_falls_back_to_the_whole_color(monkeypatch):
    # blue is K_20 on 6..25, which has long rows, plus the path
    # a b c d e f = 4 0 1 2 3 5: greedy takes 0-1 and 2-3 and leaves the
    # ends 4 and 5, and 4's one swap (0's mate 1 to a free vertex) is
    # missing, so blue goes whole to networkx, which finds a-b, c-d, e-f;
    # red is K_20 on the same vertices plus 0-3, 1-4, 2-5, which greedy
    # matches perfectly, with or without blue's pairs
    g = ac.empty(26)
    for u, v in [(4, 0), (0, 1), (1, 2), (2, 3), (3, 5)]:
        g.add_edge(u, v, BLUE)
    for u, v in [(0, 3), (1, 4), (2, 5)]:
        g.add_edge(u, v, RED)
    for u, v in combinations(range(6, 26), 2):
        g.add_edge(u, v, BLUE).add_edge(u, v, RED)
    assert factor._greedy_matching(g.masks(BLUE)) is None
    blue_edges = sum(c is BLUE for _, _, c in g.edges())
    calls = record_matchings(monkeypatch)
    f = ac.find_alternating_cycle_factor(g)
    assert f is not None and ac.validate_factor(g, f)
    assert calls == [(blue_edges, True)]
    calls.clear()
    f = ac.find_factor_without_two_cycles(g)
    assert f is not None and ac.validate_factor(g, f)
    assert all(len(c) > 2 for c in f)
    assert calls == [(blue_edges, True)]


def reference_factor_exists(g, first=BLUE, disjoint=False):
    """Whether a perfect matching of `first`'s edges and one of the other
    color's, less the pairs of the first if `disjoint`, exist, with both
    matchings taken on all of a color's edges."""
    taken = factor.maximum_matching([(u, v) for u, v, c in g.edges() if c is first], g.n)
    if None in taken:
        return False
    rest = [
        (u, v) for u, v, c in g.edges() if c is first.other and not (disjoint and taken[u] == v)
    ]
    return None not in factor.maximum_matching(rest, g.n)


def dense_closures():
    """2-M closures of random graphs of 18-42 vertices (a closure of 64
    takes seconds) and planted instances."""
    for n in range(18, 43, 4):
        yield ac.closure_2m(ac.gen_random(n, n, (0.3, 0.45, 0.6)[n % 3]), n)
    for seed in range(20):
        yield planted_instance(seed)[0]


def dense_graphs():
    """Seeded complete colorings of 18-64 vertices and `dense_closures`."""
    for n in range(18, 65, 2):
        yield ac.gen_complete(n, n)
    yield from dense_closures()


def test_greedy_factor_existence_matches_whole_color_reference():
    greedy = 0
    for g in dense_graphs():
        f = ac.find_alternating_cycle_factor(g)
        assert (f is not None) == reference_factor_exists(g), ac.serialize_text(g)
        assert f is None or ac.validate_factor(g, f)
        f = ac.find_factor_without_two_cycles(g)
        want = reference_factor_exists(g, BLUE, True) or reference_factor_exists(g, RED, True)
        assert (f is not None) == want, ac.serialize_text(g)
        assert f is None or (ac.validate_factor(g, f) and all(len(c) > 2 for c in f))
        greedy += has_long_row(g)
    assert greedy >= 20


def test_dense_factor_makes_no_blossom_call(monkeypatch):
    calls = record_matchings(monkeypatch)
    dense = bench_pool_graphs("solve-dense", 1) + [ac.gen_complete(200, s) for s in (0, 1)]
    for g in dense:
        f = ac.find_alternating_cycle_factor(g)
        assert f is not None and ac.validate_factor(g, f)
    assert {g.n for g in dense} == {*range(100, 119, 2), 200}
    assert calls == []


def both_colored_complete(n: int, seed: int):
    """The complete graph on range(n), each pair blue, red or both, both
    with a probability drawn from 0.1-0.9 per graph; 2-M-closed, since
    every pair is adjacent."""
    rng = random.Random(seed)
    both = rng.uniform(0.1, 0.9)
    g = ac.empty(n)
    for u, v in combinations(range(n), 2):
        if rng.random() < both:
            g.add_edge(u, v, BLUE).add_edge(u, v, RED)
        else:
            g.add_edge(u, v, rng.choice((BLUE, RED)))
    return g


def test_greedy_factors_with_two_cycles_still_solve():
    # the greedy tier pairs a blue and a red edge on one pair more often
    # than networkx does, so these factors carry many 2-cycles, which the
    # merge layer must still join into one cycle
    two_cycles = greedy = 0
    for seed in range(24):
        g = both_colored_complete(20 + 2 * (seed % 30), seed)
        greedy += has_long_row(g)
        two_cycles += sum(len(c) == 2 for c in ac.find_alternating_cycle_factor(g))
        result = ac.solve_hamiltonian(g)
        assert isinstance(result, ac.HamiltonianCycle), ac.serialize_text(g)
        assert ac.validate_factor(g, [result.cycle])
    assert greedy >= 20 and two_cycles >= 24


def test_dense_closures_solve_as_their_factors_say():
    greedy = 0
    for g in dense_closures():
        result = ac.solve_hamiltonian(g)
        greedy += has_long_row(g)
        assert (result == ac.NoFactor()) != reference_factor_exists(g), ac.serialize_text(g)
        if isinstance(result, ac.HamiltonianCycle):
            assert ac.validate_factor(g, [result.cycle])
    assert greedy >= 5
