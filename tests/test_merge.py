from __future__ import annotations

import contextlib
import random
from collections import Counter
from itertools import combinations, permutations

import pytest

import altcycles as ac
from altcycles import (
    BLUE,
    RED,
    Dominates,
    HamiltonianCycle,
    Merged,
    NoFactor,
    NotAdjacent,
    NotColorConnected,
    NotTwoMClosed,
)
from altcycles.cycles import AltCycle, cycle_from_vertex_sequence
from altcycles.graph import OutOfRangeError
from altcycles.merge import (
    NotColorConnectedCert,
    StructureViolation,
    appropriately_label,
    build_domination_digraph,
    color_dominates,
    merge_domination_triangle,
    merge_good_pair,
    merge_pair,
)
from conftest import (
    BOTH_ORDER_CODES,
    G8,
    G8b,
    G12,
    ONE_ORDER_CODES,
    assert_no_alternating_path,
    complete_within,
    dominate,
    domination_pair_graph,
    not_color_connected_graph,
    planted_instance,
    ring,
    small_corpus,
    solve_corpus_graphs,
    triangle_graph,
    two_cycle_gap_graph,
    two_square_coloring,
)


def mixed_star_graph(s1: int, s3: int):
    """Two 4-cycles joined by a complete cross pattern whose colors depend
    only on the index-difference class; s1/s3 shift the two free classes."""
    g = ac.empty(8)
    c1 = ring(g, 0, 2)
    c2 = ring(g, 4, 2)
    for a in range(4):
        for b in range(4):
            d = (a - b) % 4
            if d == 0:
                col = BLUE if a % 2 == 0 else RED
            elif d == 2:
                col = RED if a % 2 == 0 else BLUE
            elif d == 1:
                col = BLUE if (a + s1) % 2 == 0 else RED
            else:
                col = BLUE if (a + s3) % 2 == 0 else RED
            g.add_edge(a, 4 + b, col)
    return g, c1, c2


# ---------------------------------------------------------------------------
# labelling


def test_appropriately_label():
    g = ac.empty(10)
    c1 = ring(g, 0, 3)
    c2 = ring(g, 6, 2)
    g.add_edge(2, 7, RED)
    a, b = appropriately_label(g, c1, c2, (2, 7))
    assert a.vertices[0] == 2 and b.vertices[0] == 7
    assert a.colors[0] is RED and b.colors[0] is RED
    assert (a, b) == (c1.rotate(2).reverse(), c2.rotate(1))


def test_appropriately_label_explicit_color():
    g = ac.empty(8)
    c1 = ring(g, 0, 2)
    c2 = ring(g, 4, 2)
    g.add_edge(0, 4, BLUE).add_edge(0, 4, RED)
    a, b = appropriately_label(g, c1, c2, (0, 4))
    assert a.colors[0] is BLUE and b.colors[0] is BLUE  # Blue when both


# ---------------------------------------------------------------------------
# good pairs


def test_good_pair_found_and_merged():
    g = ac.empty(8)
    c1 = ring(g, 0, 2)
    c2 = ring(g, 4, 2)
    g.add_edge(0, 4, BLUE).add_edge(1, 5, BLUE)
    merged = merge_good_pair(g, c1, c2)
    assert merged.vertices == (0, 4, 7, 6, 5, 1, 2, 3)
    assert ac.validate_cycle(g, merged)
    assert len(merged) == len(c1) + len(c2)
    assert set(merged.vertices) == set(c1.vertices) | set(c2.vertices)


def test_good_pair_other_orientation():
    g = ac.empty(8)
    c1 = ring(g, 0, 2)
    c2 = ring(g, 4, 2)
    g.add_edge(0, 5, BLUE).add_edge(1, 4, BLUE)
    merged = merge_good_pair(g, c1, c2)
    assert merged.vertices == (0, 5, 6, 7, 4, 1, 2, 3)
    assert ac.validate_cycle(g, merged)
    assert len(merged) == 8


def test_good_pair_requires_matching_colors():
    g = ac.empty(8)
    c1 = ring(g, 0, 2)
    c2 = ring(g, 4, 2)
    # cross edges of the wrong color for every cycle edge they span
    g.add_edge(0, 4, RED).add_edge(1, 5, RED)
    assert merge_good_pair(g, c1, c2) is None


def test_good_pair_soundness_over_corpus():
    checked = 0
    for g in small_corpus(40, sizes=range(4, 9)):
        factor = ac.find_alternating_cycle_factor(g)
        if factor is None or len(factor) < 2:
            continue
        cycles = list(factor)
        for i in range(len(cycles)):
            for j in range(i + 1, len(cycles)):
                merged = merge_good_pair(g, cycles[i], cycles[j])
                if merged is None:
                    continue
                assert ac.validate_cycle(g, merged)
                assert len(merged) == len(cycles[i]) + len(cycles[j])
                checked += 1
    assert checked > 0


# ---------------------------------------------------------------------------
# pairwise merges


def test_merge_pair_not_adjacent():
    g = ac.empty(8)
    c1 = ring(g, 0, 2)
    c2 = ring(g, 4, 2)
    assert isinstance(ac.merge_pair(g, c1, c2), NotAdjacent)


def test_merge_pair_rejects_vertices_outside_the_graph():
    g = ac.empty(4)
    c1 = ring(g, 0, 2)
    for outside in (AltCycle((4, 5), (BLUE, RED)), AltCycle((-2, -1), (BLUE, RED))):
        for pair in ((c1, outside), (outside, c1)):
            with pytest.raises(OutOfRangeError):
                ac.merge_pair(g, *pair)
    # both cycles leave the graph: c1's vertices are named first
    low_bad, high_bad = AltCycle((1, 5), (BLUE, RED)), AltCycle((0, 9), (BLUE, RED))
    for pair, named in (((high_bad, low_bad), 9), ((low_bad, high_bad), 5)):
        with pytest.raises(OutOfRangeError, match=rf"^vertex {named} outside 0\.\.3$"):
            ac.merge_pair(g, *pair)


def test_merge_pair_rejects_overlapping_cycles():
    """Cycles that share a vertex are no merge input: a ValueError, before
    any verdict is sought."""
    g = ac.gen_complete(8, 3)
    (cycle,) = ac.find_alternating_cycle_factor(g)
    assert len(cycle) == 8
    part = AltCycle(cycle.vertices[3:5], (BLUE, RED))
    for pair in ((cycle, cycle), (cycle, cycle.reverse()), (cycle, part)):
        for c1, c2 in (pair, pair[::-1]):
            with pytest.raises(ValueError, match="^the cycles share a vertex$"):
                ac.merge_pair(g, c1, c2)


def test_merge_pair_mixed_star():
    for s1, s3, expect in (
        (0, 0, "mixed-star"),
        (1, 1, "mixed-star"),
        (0, 1, "good-pair"),
        (1, 0, "good-pair"),
    ):
        g, c1, c2 = mixed_star_graph(s1, s3)
        out = ac.merge_pair(g, c1, c2)
        assert isinstance(out, Merged)
        assert out.rule == expect
        assert ac.validate_cycle(g, out.cycle)
        assert set(out.cycle.vertices) == set(range(8))


def test_merge_pair_domination_verdict():
    g, c1, c2 = domination_pair_graph()
    out = ac.merge_pair(g, c1, c2)
    assert out == Dominates(source=1, color=BLUE)
    assert merge_good_pair(g, c1, c2) is None
    assert color_dominates(g, c1, c2) is BLUE
    assert color_dominates(g, c2, c1) is None
    # swapped arguments report the same domination from the other side
    assert ac.merge_pair(g, c2, c1) == Dominates(source=2, color=BLUE)


def _class_monochromatic(g, vertices, color):
    for a in range(len(vertices)):
        for b in range(a + 1, len(vertices)):
            u, v = vertices[a], vertices[b]
            if not g.has_edge_color(u, v, color) or g.has_edge_color(u, v, color.other):
                return False
    return True


def _dominates_with(g, c1, c2, color):
    """The domination definition read pair by pair: the reference for the
    mask form in `color_dominates`."""
    i_set, p_set = sorted(c1.i_set), sorted(c1.p_set)
    for u in c1.vertices:
        for v in c2.vertices:
            if not (g.has_edge_color(u, v, BLUE) or g.has_edge_color(u, v, RED)):
                return False
    if not _class_monochromatic(g, i_set, color):
        return False
    if not _class_monochromatic(g, p_set, color.other):
        return False
    for cls, c in ((i_set, color), (p_set, color.other)):
        for u in cls:
            for v in c2.vertices:
                if not g.has_edge_color(u, v, c) or g.has_edge_color(u, v, c.other):
                    return False
    return True


def test_color_dominates_matches_pairwise_reference():
    seen: Counter = Counter()
    for seed in range(300):
        g, cycles = planted_instance(seed)
        rng = random.Random(seed)
        for _ in range(rng.randint(0, 3)):
            u, v = rng.sample(range(g.n), 2)
            g.add_edge(u, v, rng.choice((BLUE, RED)))
        for c1, c2 in permutations(cycles, 2):
            expected = next((c for c in (BLUE, RED) if _dominates_with(g, c1, c2, c)), None)
            assert color_dominates(g, c1, c2) is expected
            seen[expected] += 1
    assert set(seen) == {BLUE, RED, None}


def test_color_dominates_tests_one_color(monkeypatch):
    """Only the color of the edge between the cycles' first vertices can
    dominate, so a domination test runs `_dominates_with` at most once."""
    inner, outer = ac.merge._dominates_with, ac.merge.color_dominates
    runs: list[int] = []  # `_dominates_with` calls per `color_dominates` call

    def counted_inner(*args):
        runs[-1] += 1
        return inner(*args)

    def counted_outer(*args):
        runs.append(0)
        return outer(*args)

    monkeypatch.setattr(ac.merge, "_dominates_with", counted_inner)
    monkeypatch.setattr(ac.merge, "color_dominates", counted_outer)
    verdicts: Counter = Counter()
    for seed in range(300):
        g, cycles = planted_instance(seed)
        for c1, c2 in permutations(cycles, 2):
            verdicts[type(ac.merge_pair(g, c1, c2))] += 1
    assert max(runs) == 1
    assert verdicts[Dominates] > 0


def test_merge_pair_label_invariant():
    g, c1, c2 = domination_pair_graph()
    base = ac.merge_pair(g, c1, c2)
    for a in (c1.rotate(2), c1.reverse(), c1.rotate(4).reverse()):
        for b in (c2, c2.rotate(2), c2.reverse()):
            assert ac.merge_pair(g, a, b) == base


def test_merge_pair_chord_inside_even_class():
    g, c1, c2 = domination_pair_graph()
    g.add_edge(0, 4, RED)  # second color on an even-class pair
    out = ac.merge_pair(g, c1, c2)
    assert isinstance(out, Merged)
    assert out.rule == "chord"
    assert ac.validate_cycle(g, out.cycle)
    assert set(out.cycle.vertices) == set(range(10))


def test_merge_pair_chord_inside_odd_class():
    g, c1, c2 = domination_pair_graph()
    g.add_edge(1, 5, BLUE)  # second color on an odd-class pair
    out = ac.merge_pair(g, c1, c2)
    assert isinstance(out, Merged)
    assert ac.validate_cycle(g, out.cycle)
    assert set(out.cycle.vertices) == set(range(10))


def test_merge_pair_raises_without_a_pattern():
    # maximally sparse join: single cross edge, nothing else; the graph is
    # not 2-M-closed, so no construction applies
    g = ac.empty(8)
    c1 = ring(g, 0, 2)
    c2 = ring(g, 4, 2)
    g.add_edge(0, 4, RED)
    with pytest.raises(StructureViolation, match="^no merge pattern$") as info:
        ac.merge_pair(g, c1, c2)
    assert info.value.offenders == (c1, c2)
    assert ac.two_m_violations(g)


# ---------------------------------------------------------------------------
# domination digraph and triangles


def digraph_of(g, cycles):
    """The domination digraph built, as the solver builds it, from
    merge_pair's verdicts on every pair."""
    verdicts = {
        (i, j): ac.merge_pair(g, cycles[i], cycles[j])
        for i, j in combinations(range(len(cycles)), 2)
    }
    return build_domination_digraph(verdicts)


TRIANGLE_COLORS = [
    (BLUE, BLUE, BLUE),
    (BLUE, BLUE, RED),
    (RED, RED, BLUE),
    (RED, RED, RED),
    (BLUE, RED, BLUE),
    (RED, BLUE, RED),
]


@pytest.mark.parametrize("colors", TRIANGLE_COLORS)
def test_domination_triangle(colors):
    g, cycles = triangle_graph(colors)
    assert ac.is_2m_closed(g)
    assert digraph_of(g, cycles) == {
        (0, 1): colors[0],
        (1, 2): colors[1],
        (2, 0): colors[2],
    }
    trace: list[str] = []
    ac.solve_from_factor(g, cycles, trace)
    assert trace[-1] == "merge triangle 0 1 2"
    merged = merge_domination_triangle(g, cycles[0], cycles[1], cycles[2], colors)
    assert ac.validate_cycle(g, merged)
    assert set(merged.vertices) == set(range(14))


def test_domination_triangle_solves_to_hamiltonian():
    g, _cycles = triangle_graph((BLUE, BLUE, RED))
    result = ac.solve_hamiltonian(g)
    assert isinstance(result, HamiltonianCycle)
    assert ac.validate_factor(g, [result.cycle])


def test_digraph_rejects_merged_pair_of_two_way_planting():
    # planting domination both ways leaves neither cycle dominating: every
    # cross pair carries both colors, and the pair merges instead
    g = ac.empty(8)
    c1 = ring(g, 0, 2)
    c2 = ring(g, 4, 2)
    dominate(g, c1, c2, BLUE)
    dominate(g, c2, c1, BLUE)
    assert color_dominates(g, c1, c2) is None
    assert color_dominates(g, c2, c1) is None
    assert isinstance(ac.merge_pair(g, c1, c2), Merged)
    with pytest.raises(StructureViolation, match="^adjacent cycles with no domination$"):
        digraph_of(g, [c1, c2])


def test_digraph_is_plain_arcs():
    """Pairs without an arc add nothing: the digraph need not be a tournament."""
    dom = Dominates(1, BLUE)
    verdicts = {(0, 1): dom, (0, 2): dom, (1, 2): NotAdjacent()}
    assert build_domination_digraph(verdicts) == {(0, 1): BLUE, (0, 2): BLUE}


def test_digraph_source():
    g, cycles = not_color_connected_graph()
    assert digraph_of(g, cycles) == {(0, 1): BLUE, (0, 2): BLUE, (1, 2): BLUE}
    cert = ac.solve_from_factor(g, cycles).certificate
    assert (cert.cycle, cert.domination_color) == (cycles[0], BLUE)


def record_merge_calls(monkeypatch) -> list:
    """Make the solver's merge_pair log (g, c1, c2, outcome) per call into
    the returned list."""
    calls = []

    def recording(g, c1, c2):
        outcome = merge_pair(g, c1, c2)
        calls.append((g, c1, c2, outcome))
        return outcome

    monkeypatch.setattr("altcycles.merge.merge_pair", recording)
    return calls


def solve_planted(seeds) -> None:
    for seed in seeds:
        g, cycles = planted_instance(seed)
        with contextlib.suppress(StructureViolation):  # the open 2-cycle gap
            ac.solve_from_factor(g, cycles)


def test_dominates_verdicts_are_one_way_and_match_the_first_edge(monkeypatch):
    """Why the digraph takes merge_pair's Dominates verdicts unchecked: over
    whole-solver runs, the reverse pair never dominates, and the edge
    between the two first vertices carries exactly the arc's color."""
    calls = record_merge_calls(monkeypatch)
    solve_planted(range(300))
    planted = sum(isinstance(outcome, Dominates) for *_, outcome in calls)
    for g in solve_corpus_graphs(seed=1):
        with contextlib.suppress(StructureViolation):
            ac.solve_hamiltonian(g)
    seen = [call for call in calls if isinstance(call[3], Dominates)]
    assert planted and len(seen) > planted
    for g, c1, c2, outcome in seen:
        src, dst = (c1, c2) if outcome.source == 1 else (c2, c1)
        assert color_dominates(g, dst, src) is None
        u, v = src.vertices[0], dst.vertices[0]
        assert [c for c in (BLUE, RED) if g.has_edge_color(u, v, c)] == [outcome.color]


def test_merge_pair_verdict_kind_ignores_argument_order(monkeypatch):
    """On the pairs the solver sweeps, swapping the arguments keeps the
    verdict kind, and a domination keeps its dominating cycle and color."""
    calls = record_merge_calls(monkeypatch)
    solve_planted(range(300))
    kinds = Counter(type(outcome).__name__ for *_, outcome in calls)
    assert {"Merged", "Dominates", "NotAdjacent"} <= set(kinds)
    for g, c1, c2, outcome in calls:
        swapped = merge_pair(g, c2, c1)
        if isinstance(outcome, Dominates):
            assert swapped == Dominates(3 - outcome.source, outcome.color)
        else:
            assert type(swapped) is type(outcome)


def _verdict_lines(outcome) -> list[str]:
    """The trace lines `solve --trace` prints for one merge_pair verdict."""
    if isinstance(outcome, Merged):
        return [f"merge {outcome.rule}"]
    if isinstance(outcome, Dominates):
        return [f"dominate {outcome.source} {3 - outcome.source} {outcome.color.value}"]
    return []


def test_trace_is_rendered_from_the_verdicts(monkeypatch):
    """Over whole-solver runs, the trace less its `merge triangle` lines is
    the rendering of merge_pair's verdicts in call order, and every merge
    names one of the three pairwise rules: the trace carries nothing that
    the verdicts do not."""
    calls = record_merge_calls(monkeypatch)
    solves = [
        (lambda trace, g=g, cycles=cycles: ac.solve_from_factor(g, cycles, trace))
        for g, cycles in map(planted_instance, range(300))
    ] + [
        (lambda trace, g=g: ac.solve_hamiltonian(g, trace)) for g in solve_corpus_graphs(seed=1)
    ]
    for solve in solves:
        first, trace = len(calls), []
        with contextlib.suppress(StructureViolation):  # the open 2-cycle gap
            solve(trace)
        rendered = [line for *_, outcome in calls[first:] for line in _verdict_lines(outcome)]
        assert [line for line in trace if not line.startswith("merge triangle ")] == rendered
    rules = Counter(outcome.rule for *_, outcome in calls if isinstance(outcome, Merged))
    assert set(rules) <= {"good-pair", "mixed-star", "chord"}
    assert rules["good-pair"] and rules["chord"]


def test_dominated_pairs_span_no_alternating_cycle():
    """Why merge_pair may return a domination before trying to merge: over
    the planted pairs, every pair that color_dominates accepts, either way
    round, has no alternating cycle on its union."""
    dominated = 0
    for seed in range(300):
        g, cycles = planted_instance(seed)
        for c1, c2 in permutations(cycles, 2):
            if color_dominates(g, c1, c2) is not None:
                dominated += 1
                assert ac.oracle_merge(g, c1, c2) is None
    assert dominated == 291


# ---------------------------------------------------------------------------
# solver


def test_solve_not_2m_closed():
    g = ac.empty(3)
    g.add_edge(0, 1, BLUE).add_edge(1, 2, BLUE)
    result = ac.solve_hamiltonian(g)
    assert isinstance(result, NotTwoMClosed)
    assert result.witness.holds_in(g)
    assert result.witness.endpoint_edge_missing(g)


def test_solve_no_factor():
    # an empty tuple is never a factor: every entry point says None or no
    g0 = ac.empty(0)
    assert isinstance(ac.solve_hamiltonian(g0), NoFactor)
    assert ac.find_alternating_cycle_factor(g0) is None
    assert ac.find_factor_without_two_cycles(g0) is None
    for allow_two_cycles in (True, False):
        assert ac.oracle_factor(g0, allow_two_cycles=allow_two_cycles) is None
    assert not ac.validate_factor(g0, ())
    with pytest.raises(ValueError, match="not an alternating cycle factor"):
        ac.solve_from_factor(g0, ())
    g = ac.empty(4)
    for u in range(4):
        for v in range(u + 1, 4):
            g.add_edge(u, v, BLUE)
    assert isinstance(ac.solve_hamiltonian(g), NoFactor)


def test_solve_single_cycle():
    g = ac.empty(6)
    c = ring(g, 0, 3)
    result = ac.solve_hamiltonian(g)
    assert isinstance(result, HamiltonianCycle)
    assert result.cycle == c


def test_solve_not_color_connected_certificate():
    g, _cycles = not_color_connected_graph()
    result = ac.solve_hamiltonian(g)
    assert isinstance(result, NotColorConnected)
    cert = result.certificate
    assert cert.vertex in cert.cycle.vertices
    assert cert.target not in cert.cycle.vertices
    assert_no_alternating_path(g, cert.vertex, cert.target, cert.start_color)
    assert not ac.is_color_connected(g)
    assert ac.oracle_hamiltonian(g) is None


def test_solve_disconnected_factor():
    g = ac.empty(8)
    ring(g, 0, 2)
    ring(g, 4, 2)
    result = ac.solve_hamiltonian(g)
    assert isinstance(result, NotColorConnected)
    cert = result.certificate
    assert_no_alternating_path(g, cert.vertex, cert.target, cert.start_color)


@pytest.mark.parametrize("joined, target", [(False, 8), (True, 0)])
def test_disconnected_certificate_fields(joined, target):
    """Three rings, the first given rotated and not holding vertex 0: the
    certificate starts at the least even-position vertex of the first cycle
    and targets the least vertex of the first cycle it cannot reach."""
    g = ac.empty(12)
    a, b, c = ring(g, 0, 2), ring(g, 4, 2, RED), ring(g, 8, 2)
    if joined:
        g.add_edge(5, 10, BLUE)
    first = b.rotate(1)
    assert first.vertices == (5, 6, 7, 4)
    result = ac.solve_from_factor(g, [first, c.rotate(1), a])
    assert result == NotColorConnected(
        NotColorConnectedCert(
            cycle=first, vertex=5, target=target, start_color=BLUE, domination_color=None
        )
    )


def test_solve_rejects_non_spanning_merge(monkeypatch):
    g = ac.gen_complete(12, 0)
    assert len(ac.find_alternating_cycle_factor(g)) == 3

    def drop_second(g, c1, c2):
        return Merged(c1, "chord")  # a valid cycle that loses V(c2)

    monkeypatch.setattr("altcycles.merge.merge_pair", drop_second)
    with pytest.raises(StructureViolation):
        ac.solve_hamiltonian(g)


def test_solve_agrees_with_oracle_on_closed_graphs():
    for g in small_corpus(60, sizes=range(4, 9), seed0=500):
        h = ac.closure_2m(g, 1)
        result = ac.solve_hamiltonian(h)
        oracle = ac.oracle_hamiltonian(h)
        if isinstance(result, HamiltonianCycle):
            assert oracle is not None
            assert ac.validate_factor(h, [result.cycle])
        else:
            assert oracle is None


def test_two_cycle_factor_gap():
    """Open defect: on this graph the solver raises instead of answering.

    The graph is 2-M-closed, color-connected and has an alternating cycle
    factor, but every factor contains 2-cycles and there is no alternating
    Hamiltonian cycle. The 2-cycle {4, 5} dominates {0, 1} in blue and
    {2, 3} in red, so the domination digraph has a two-colored out-star,
    which the theory as implemented rules out.
    """
    g = two_cycle_gap_graph()
    assert ac.is_2m_closed(g)
    assert ac.is_color_connected(g)
    factor = ac.find_alternating_cycle_factor(g)
    assert factor is not None
    assert ac.oracle_factor(g, allow_two_cycles=False) is None
    assert ac.oracle_hamiltonian(g) is None
    assert all(
        cycle_from_vertex_sequence(g, (0, *rest)) is None
        for rest in permutations(range(1, g.n))
    )
    c01, c23, c45 = factor
    assert [c.vertices for c in (c01, c23, c45)] == [(0, 1), (2, 3), (4, 5)]
    assert color_dominates(g, c45, c01) is BLUE
    assert color_dominates(g, c45, c23) is RED
    with pytest.raises(StructureViolation, match="^out-arcs of one cycle differ in color$"):
        ac.solve_hamiltonian(g)


# planted factors in which a cycle that is no source dominates others in
# both colors: a domination triangle still merges, or the source, whose
# out-arcs share one color, still certifies
@pytest.mark.parametrize("seed", (2219, 2860, 2943, 3685, 3943, 4059, 5488))
def test_mixed_out_star_off_the_source_still_merges(seed):
    g, cycles = planted_instance(seed)
    for order in (cycles, cycles[::-1]):
        result = ac.solve_from_factor(g, order)
        assert isinstance(result, HamiltonianCycle)
        _assert_matches_oracle(g, result)


def test_mixed_out_star_off_the_source_still_certifies():
    g, cycles = planted_instance(4508)
    for result in (
        ac.solve_from_factor(g, cycles),
        ac.solve_from_factor(g, cycles[::-1]),
        ac.solve_hamiltonian(g),
    ):
        assert isinstance(result, NotColorConnected)
        _assert_matches_oracle(g, result)


def test_mixed_source_raises_at_the_source():
    g, cycles = planted_instance(1292)
    with pytest.raises(StructureViolation, match="^out-arcs of one cycle differ in color$") as info:
        ac.solve_from_factor(g, cycles)
    assert info.value.offenders == (1,)


def test_merge_argument_order_gap():
    """merge_pair's outcome on G8 does not depend on the argument order.

    G8 is 2-M-closed and has an alternating Hamiltonian cycle, and its
    factor has two 4-cycles, no 2-cycle. The chord is sought in either
    cycle, so both orders merge the pair into the same cycle.
    """
    g, (a, b) = G8()
    assert ac.is_2m_closed(g)
    assert ac.oracle_hamiltonian(g) is not None
    assert len(a) == len(b) == 4
    for cycles in ([a, b], [b, a]):
        trace: list[str] = []
        result = ac.solve_from_factor(g, cycles, trace)
        assert isinstance(result, HamiltonianCycle)
        assert result.cycle.vertices == (1, 4, 7, 5, 6, 0, 3, 2)
        assert trace == ["merge chord"]


def test_merge_order_gap_colorings():
    """Every coloring that raised in one order or in both now merges in both,
    into a valid cycle on all 8 vertices."""
    assert two_square_coloring(334939, BLUE)[0] == G8b()[0]
    for first in (BLUE, RED):
        for code in (*ONE_ORDER_CODES[first], *BOTH_ORDER_CODES[first]):
            g, a, b = two_square_coloring(code, first)
            assert ac.is_2m_closed(g)
            for c1, c2 in ((a, b), (b, a)):
                outcome = merge_pair(g, c1, c2)
                assert isinstance(outcome, Merged), (code, first)
                assert ac.validate_cycle(g, outcome.cycle)
                assert sorted(outcome.cycle.vertices) == list(range(8))


def test_merge_pair_no_pattern_in_either_order():
    """G8b merges in either order, though not at the smallest cross edge.

    G8b is 2-M-closed, color-connected and has an alternating Hamiltonian
    cycle; its factor has two 4-cycles, no 2-cycle. Anchored at the smallest
    cross edge, neither the mixed star nor the chord merges the pair in
    either order; a later anchor merges it by the mixed star.
    """
    g, (a, b) = G8b()
    assert ac.is_2m_closed(g)
    assert ac.is_color_connected(g)
    assert ac.find_alternating_cycle_factor(g) == (a, b)
    assert ac.oracle_hamiltonian(g).vertices == (0, 1, 4, 5, 2, 3, 6, 7)
    for cycles, expected in (
        ([a, b], (5, 4, 1, 0, 7, 6, 3, 2)),
        ([b, a], (1, 2, 7, 4, 3, 0, 5, 6)),
    ):
        trace: list[str] = []
        result = ac.solve_from_factor(g, cycles, trace)
        assert isinstance(result, HamiltonianCycle)
        assert result.cycle.vertices == expected
        assert trace == ["merge mixed-star"]
        _assert_matches_oracle(g, result)
    assert ac.solve_hamiltonian(g).cycle.vertices == (5, 4, 1, 0, 7, 6, 3, 2)


def test_solve_from_factor_rejects_non_factor():
    g, c1, c2 = domination_pair_graph()
    for cycles in ([], [c1], [c1, c1, c2]):
        with pytest.raises(ValueError):
            ac.solve_from_factor(g, cycles)
    g4 = ac.empty(4)
    ring(g4, 0, 2)
    with pytest.raises(ValueError):  # a vertex outside the graph
        ac.solve_from_factor(g4, [AltCycle((0, 1, 2, 9), (BLUE, RED, BLUE, RED))])


def _assert_matches_oracle(g, result):
    """A spanning valid cycle exactly when the oracle finds one, else a
    certificate that the alternating-path search confirms."""
    oracle = ac.oracle_hamiltonian(g)
    if isinstance(result, HamiltonianCycle):
        assert oracle is not None
        assert ac.validate_factor(g, [result.cycle])
        return
    assert isinstance(result, NotColorConnected)
    assert oracle is None
    cert = result.certificate
    assert_no_alternating_path(g, cert.vertex, cert.target, cert.start_color)


def _closed_mixed_star_graph():
    # the fixture is not 2-M-closed; its closure still merges by the star
    g, c1, c2 = mixed_star_graph(0, 0)
    return ac.closure_2m(g, 0, "B"), [c1, c2]


def _chord_graph(u, v, color):
    g, c1, c2 = domination_pair_graph()
    g.add_edge(u, v, color)
    return g, [c1, c2]


def _triangle_trace(colors):
    # pairs (0, 1), (0, 2), (1, 2) are tried in order; cycle 2 dominates 0
    b01, b12, b20 = (c.value for c in colors)
    return [f"dominate 1 2 {b01}", f"dominate 2 1 {b20}", f"dominate 1 2 {b12}",
            "merge triangle 0 1 2"]


RULE_CASES = [
    *(
        (
            "triangle-" + "".join(c.value for c in colors),
            lambda colors=colors: triangle_graph(colors),
            _triangle_trace(colors),
        )
        for colors in TRIANGLE_COLORS
    ),
    ("mixed-star", _closed_mixed_star_graph, ["merge mixed-star"]),
    ("mixed-star-long-arm", G12, ["merge mixed-star"]),
    ("mixed-star-later-anchor", G8b, ["merge mixed-star"]),
    ("chord-even-class", lambda: _chord_graph(0, 4, RED), ["merge chord"]),
    ("chord-odd-class", lambda: _chord_graph(1, 5, BLUE), ["merge chord"]),
    ("chord-G8", G8, ["merge chord"]),
    ("certificate", not_color_connected_graph, ["dominate 1 2 B"] * 3),
]


@pytest.mark.parametrize(
    "build, expected_trace", [c[1:] for c in RULE_CASES], ids=[c[0] for c in RULE_CASES]
)
def test_solve_from_factor_fires_each_rule(build, expected_trace):
    g, cycles = build()
    assert ac.is_2m_closed(g)
    trace: list[str] = []
    result = ac.solve_from_factor(g, cycles, trace)
    assert trace == expected_trace
    _assert_matches_oracle(g, result)


def test_solve_from_factor_on_planted_factors():
    """Whole-solver runs reach every constructive rule but the mixed star
    (only the fixtures above reach it) and agree with the oracle, except on
    the open 2-cycle gap (test_two_cycle_factor_gap)."""
    rules: Counter[str] = Counter()
    verdicts: Counter[str] = Counter()
    for seed in range(300):
        g, cycles = planted_instance(seed)
        trace: list[str] = []
        try:
            result = ac.solve_from_factor(g, cycles, trace)
        except StructureViolation as exc:
            assert str(exc) == "out-arcs of one cycle differ in color"
            assert any(len(c) == 2 for c in cycles)
            verdicts["two-cycle gap"] += 1
            continue
        _assert_matches_oracle(g, result)
        verdicts[type(result).__name__] += 1
        rules.update(line.split()[0 if line.startswith("dominate") else 1] for line in trace)
    assert {"good-pair", "chord", "dominate", "triangle"} <= set(rules)
    assert verdicts["HamiltonianCycle"] and verdicts["NotColorConnected"]
