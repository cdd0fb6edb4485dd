from __future__ import annotations

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
from altcycles.merge import (
    InvalidPairError,
    MergeError,
    NotOnCycleError,
    StructureViolation,
    appropriately_label,
    check_parallel_edges,
    merge_domination_triangle,
)
from conftest import (
    complete_within,
    dominate,
    domination_pair_graph,
    not_color_connected_graph,
    ring,
    small_corpus,
    triangle_graph,
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
    assert a.canonical() == c1.canonical()
    assert b.canonical() == c2.canonical()


def test_appropriately_label_explicit_color():
    g = ac.empty(8)
    c1 = ring(g, 0, 2)
    c2 = ring(g, 4, 2)
    g.add_edge(0, 4, BLUE).add_edge(0, 4, RED)
    a, b = appropriately_label(g, c1, c2, (0, 4), RED)
    assert a.colors[0] is RED and b.colors[0] is RED
    with pytest.raises(MergeError):
        appropriately_label(g, c1, c2, (1, 5))
    with pytest.raises(NotOnCycleError):
        appropriately_label(g, c1, c2, (5, 4))


# ---------------------------------------------------------------------------
# good pairs


def test_good_pair_found_and_merged():
    g = ac.empty(8)
    c1 = ring(g, 0, 2)
    c2 = ring(g, 4, 2)
    g.add_edge(0, 4, BLUE).add_edge(1, 5, BLUE)
    pair = ac.find_good_pair(g, c1, c2)
    assert pair is not None
    assert (pair.i, pair.j, pair.orientation, pair.color) == (0, 0, 1, BLUE)
    merged = ac.merge_good_pair(g, c1, c2, pair)
    assert ac.validate_cycle(g, merged)
    assert len(merged) == len(c1) + len(c2)
    assert merged.vertex_set() == c1.vertex_set() | c2.vertex_set()


def test_good_pair_other_orientation():
    g = ac.empty(8)
    c1 = ring(g, 0, 2)
    c2 = ring(g, 4, 2)
    g.add_edge(0, 5, BLUE).add_edge(1, 4, BLUE)
    pair = ac.find_good_pair(g, c1, c2)
    assert pair is not None and pair.orientation == 2
    merged = ac.merge_good_pair(g, c1, c2, pair)
    assert ac.validate_cycle(g, merged)
    assert len(merged) == 8


def test_good_pair_requires_matching_colors():
    g = ac.empty(8)
    c1 = ring(g, 0, 2)
    c2 = ring(g, 4, 2)
    # cross edges of the wrong color for every cycle edge they span
    g.add_edge(0, 4, RED).add_edge(1, 5, RED)
    assert ac.find_good_pair(g, c1, c2) is None


def test_merge_good_pair_rejects_bogus_pair():
    g = ac.empty(8)
    c1 = ring(g, 0, 2)
    c2 = ring(g, 4, 2)
    from altcycles.merge import GoodPair

    with pytest.raises(InvalidPairError):
        ac.merge_good_pair(g, c1, c2, GoodPair(0, 0, 1, BLUE))


def test_good_pair_soundness_over_corpus():
    checked = 0
    for g in small_corpus(40, sizes=range(4, 9)):
        factor = ac.find_alternating_cycle_factor(g)
        if factor is None or len(factor) < 2:
            continue
        cycles = list(factor)
        for i in range(len(cycles)):
            for j in range(i + 1, len(cycles)):
                pair = ac.find_good_pair(g, cycles[i], cycles[j])
                if pair is None:
                    continue
                merged = ac.merge_good_pair(g, cycles[i], cycles[j], pair)
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


def test_merge_pair_mixed_star():
    for s1, s3, expect in (
        (0, 0, "merge mixed-star"),
        (1, 1, "merge mixed-star"),
        (0, 1, "merge good-pair"),
        (1, 0, "merge good-pair"),
    ):
        g, c1, c2 = mixed_star_graph(s1, s3)
        trace: list[str] = []
        out = ac.merge_pair(g, c1, c2, trace)
        assert isinstance(out, Merged)
        assert trace == [expect]
        assert ac.validate_cycle(g, out.cycle)
        assert out.cycle.vertex_set() == set(range(8))


def test_merge_pair_domination_verdict():
    g, c1, c2 = domination_pair_graph()
    trace: list[str] = []
    out = ac.merge_pair(g, c1, c2, trace)
    assert out == Dominates(source=1, color=BLUE)
    assert ac.find_good_pair(g, c1, c2) is None
    assert ac.color_dominates(g, c1, c2) is BLUE
    assert ac.color_dominates(g, c2, c1) is None
    # swapped arguments report the same domination from the other side
    assert ac.merge_pair(g, c2, c1) == Dominates(source=2, color=BLUE)


def test_merge_pair_label_invariant():
    g, c1, c2 = domination_pair_graph()
    base = ac.merge_pair(g, c1, c2)
    for a in (c1.rotate(2), c1.reverse(), c1.rotate(4).reverse()):
        for b in (c2, c2.rotate(2), c2.reverse()):
            assert ac.merge_pair(g, a, b) == base


def test_merge_pair_chord_inside_even_class():
    g, c1, c2 = domination_pair_graph()
    g.add_edge(0, 4, RED)  # second color on an even-class pair
    trace: list[str] = []
    out = ac.merge_pair(g, c1, c2, trace)
    assert isinstance(out, Merged)
    assert trace == ["merge chord"]
    assert ac.validate_cycle(g, out.cycle)
    assert out.cycle.vertex_set() == set(range(10))


def test_merge_pair_chord_inside_odd_class():
    g, c1, c2 = domination_pair_graph()
    g.add_edge(1, 5, BLUE)  # second color on an odd-class pair
    out = ac.merge_pair(g, c1, c2)
    assert isinstance(out, Merged)
    assert ac.validate_cycle(g, out.cycle)
    assert out.cycle.vertex_set() == set(range(10))


def test_check_parallel_edges_full_propagation():
    g, c1, c2 = domination_pair_graph()
    a, b = appropriately_label(g, c1, c2, (0, 6))
    edges, witness = check_parallel_edges(g, a, b)
    assert witness is None
    assert edges is not None and len(edges) == 12  # lcm(6, 4)
    for k, (u, v, color) in enumerate(edges):
        assert g.has_edge_color(u, v, color)
        assert color is (BLUE if k % 2 == 0 else RED)


def test_merge_pair_closure_violation_witness():
    # maximally sparse join: single cross edge, nothing else
    g = ac.empty(8)
    c1 = ring(g, 0, 2)
    c2 = ring(g, 4, 2)
    g.add_edge(0, 4, RED)
    out = ac.merge_pair(g, c1, c2)
    from altcycles.merge import Inapplicable

    assert isinstance(out, Inapplicable)
    if out.witness is not None:
        assert out.witness.holds_in(g)
        assert out.witness.endpoint_edge_missing(g)


# ---------------------------------------------------------------------------
# domination digraph and triangles


@pytest.mark.parametrize(
    "colors",
    [
        (BLUE, BLUE, BLUE),
        (BLUE, BLUE, RED),
        (RED, RED, BLUE),
        (RED, RED, RED),
        (BLUE, RED, BLUE),
        (RED, BLUE, RED),
    ],
)
def test_domination_triangle(colors):
    g, cycles = triangle_graph(colors)
    assert ac.is_2m_closed(g)
    digraph = ac.build_domination_digraph(g, cycles)
    assert digraph.arcs == {
        (0, 1): colors[0],
        (1, 2): colors[1],
        (2, 0): colors[2],
    }
    assert digraph.find_directed_triangle() == (0, 1, 2)
    assert not digraph.is_acyclic()
    merged = merge_domination_triangle(g, cycles[0], cycles[1], cycles[2], colors)
    assert ac.validate_cycle(g, merged)
    assert merged.vertex_set() == set(range(14))


def test_domination_triangle_solves_to_hamiltonian():
    g, _cycles = triangle_graph((BLUE, BLUE, RED))
    result = ac.solve_hamiltonian(g)
    assert isinstance(result, HamiltonianCycle)
    assert ac.validate_cycle(g, result.cycle)
    assert result.cycle.vertex_set() == set(range(g.n))


def test_digraph_rejects_symmetric_domination():
    g = ac.empty(8)
    c1 = ring(g, 0, 2)
    c2 = ring(g, 4, 2)
    dominate(g, c1, c2, BLUE)
    dominate(g, c2, c1, BLUE)
    with pytest.raises(StructureViolation):
        ac.build_domination_digraph(g, [c1, c2])


def test_digraph_requires_domination_between_adjacent_cycles():
    g = ac.empty(8)
    c1 = ring(g, 0, 2)
    c2 = ring(g, 4, 2)
    g.add_edge(0, 4, RED)  # adjacent but no domination either way
    with pytest.raises(StructureViolation):
        ac.build_domination_digraph(g, [c1, c2])


def test_digraph_source():
    g, cycles = not_color_connected_graph()
    digraph = ac.build_domination_digraph(g, cycles)
    assert digraph.is_acyclic()
    assert digraph.find_directed_triangle() is None
    src, color = digraph.source()
    assert (src, color) == (0, BLUE)
    assert digraph.out_degree(0) == 2


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
    assert isinstance(ac.solve_hamiltonian(ac.empty(0)), NoFactor)
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
    assert result.cycle.canonical() == c.canonical()


def test_solve_not_color_connected_certificate():
    g, _cycles = not_color_connected_graph()
    result = ac.solve_hamiltonian(g)
    assert isinstance(result, NotColorConnected)
    cert = result.certificate
    assert cert.vertex in cert.cycle.vertex_set()
    assert cert.target not in cert.cycle.vertex_set()
    for last in (BLUE, RED):
        assert (
            ac.exists_alternating_path(g, cert.vertex, cert.target, cert.start_color, last)
            is None
        )
    assert not ac.is_color_connected(g)
    assert ac.oracle_hamiltonian(g) is None


def test_solve_disconnected_factor():
    g = ac.empty(8)
    ring(g, 0, 2)
    ring(g, 4, 2)
    result = ac.solve_hamiltonian(g)
    assert isinstance(result, NotColorConnected)
    cert = result.certificate
    for last in (BLUE, RED):
        assert (
            ac.exists_alternating_path(g, cert.vertex, cert.target, cert.start_color, last)
            is None
        )


def test_solve_rejects_non_spanning_merge(monkeypatch):
    g = ac.gen_complete(12, 0)
    assert len(ac.find_alternating_cycle_factor(g)) == 3

    def drop_second(g, c1, c2, trace=None):
        return Merged(c1)  # a valid cycle that loses V(c2)

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
            assert ac.validate_cycle(h, result.cycle)
            assert result.cycle.vertex_set() == set(range(h.n))
        else:
            assert oracle is None
