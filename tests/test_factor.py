from __future__ import annotations

import gc
import tracemalloc
from itertools import combinations

import pytest

import altcycles as ac
from altcycles import BLUE, RED, factor
from conftest import complete_coloring, has_long_row, planted_instance, ring


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


def test_factor_leaves_little_cyclic_garbage():
    # networkx's cached views make its graph a reference cycle; whatever of
    # it outlives the call waits for a full collection
    g = ac.gen_complete(100, 0)
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        ac.find_alternating_cycle_factor(g)
        before = tracemalloc.get_traced_memory()[0]
        gc.collect()
        garbage = before - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
        gc.enable()
    assert garbage < 350_000


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


def test_capped_matching_falls_back_to_the_whole_color(monkeypatch):
    # blue is K_{20,20} between 0..19 and 20..39: capped at 4 higher
    # neighbours, the rows of 0..19 stop at 23 and leave 24..39 unmatched;
    # red is a perfect matching inside the sides, so no pair is 2-colored
    g = ac.empty(40)
    for u in range(20):
        for v in range(20, 40):
            g.add_edge(u, v, BLUE)
    for u in range(0, 40, 2):
        g.add_edge(u, u + 1, RED)
    calls = record_matchings(monkeypatch)
    f = ac.find_alternating_cycle_factor(g)
    assert f is not None and ac.validate_factor(g, f)
    assert calls == [(20 * factor.CAP, False), (400, True), (20, True)]
    calls.clear()
    f = ac.find_factor_without_two_cycles(g)
    assert f is not None and ac.validate_factor(g, f)
    assert all(len(c) > 2 for c in f)
    assert calls == [(20 * factor.CAP, False), (400, True), (20, True)]


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


def dense_graphs():
    """Seeded complete colorings of 18-64 vertices, 2-M closures of random
    graphs of 18-42 vertices (a closure of 64 takes seconds), and planted
    instances."""
    for n in range(18, 65, 2):
        yield ac.gen_complete(n, n)
    for n in range(18, 43, 4):
        yield ac.closure_2m(ac.gen_random(n, n, (0.3, 0.45, 0.6)[n % 3]), n)
    for seed in range(20):
        yield planted_instance(seed)[0]


def test_capped_factor_existence_matches_whole_color_reference():
    capped = 0
    for g in dense_graphs():
        f = ac.find_alternating_cycle_factor(g)
        assert (f is not None) == reference_factor_exists(g), ac.serialize_text(g)
        assert f is None or ac.validate_factor(g, f)
        f = ac.find_factor_without_two_cycles(g)
        want = reference_factor_exists(g, BLUE, True) or reference_factor_exists(g, RED, True)
        assert (f is not None) == want, ac.serialize_text(g)
        assert f is None or (ac.validate_factor(g, f) and all(len(c) > 2 for c in f))
        capped += has_long_row(g)
    assert capped >= 20


def test_dense_factor_matches_capped_subgraphs(monkeypatch):
    calls = record_matchings(monkeypatch)
    for seed in range(2):
        g = ac.gen_complete(200, seed)
        f = ac.find_alternating_cycle_factor(g)
        assert f is not None and ac.validate_factor(g, f)
    assert calls and all(size <= factor.CAP * 200 for size, perfect in calls if perfect)
