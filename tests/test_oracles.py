from __future__ import annotations

from itertools import permutations

import pytest

import altcycles as ac
from altcycles import BLUE, RED
from altcycles.cycles import cycle_from_vertex_sequence
from altcycles.graph import OutOfRangeError, induced_subgraph
from conftest import ring


def permutation_hamiltonian(g):
    """Second, independent ground truth: try every vertex order."""
    if g.n < 2 or g.n % 2 == 1:
        return None
    for perm in permutations(range(1, g.n)):
        cycle = cycle_from_vertex_sequence(g, [0, *perm])
        if cycle is not None:
            return cycle
    return None


def test_oracle_hamiltonian_on_rings():
    g = ac.empty(6)
    c = ring(g, 0, 3)
    found = ac.oracle_hamiltonian(g)
    assert found is not None
    assert found.canonical() == c.canonical()


def test_oracle_hamiltonian_degenerate():
    assert ac.oracle_hamiltonian(ac.empty(0)) is None
    assert ac.oracle_hamiltonian(ac.empty(1)) is None
    g = ac.empty(3)
    g.add_edge(0, 1, BLUE).add_edge(1, 2, RED).add_edge(0, 2, BLUE)
    assert ac.oracle_hamiltonian(g) is None  # odd order
    h = ac.empty(2)
    h.add_edge(0, 1, BLUE).add_edge(0, 1, RED)
    two = ac.oracle_hamiltonian(h)
    assert two is not None and ac.validate_cycle(h, two)


def test_oracle_hamiltonian_matches_permutation_search():
    for seed in range(120):
        n = 2 + seed % 5
        g = ac.gen_random(n, seed, 0.6)
        fast = ac.oracle_hamiltonian(g)
        slow = permutation_hamiltonian(g)
        assert (fast is None) == (slow is None)
        if fast is not None:
            assert ac.validate_cycle(g, fast)
            assert fast.vertex_set() == set(range(n))


def test_oracle_factor_validates():
    for seed in range(100):
        g = ac.gen_random(2 + seed % 5, seed + 1000, 0.5)
        f = ac.oracle_factor(g)
        if f is not None:
            assert ac.validate_factor(g, f)


def test_oracle_alt_path_basics():
    g = ac.empty(4)
    g.add_edge(0, 1, BLUE).add_edge(1, 2, RED).add_edge(2, 3, BLUE)
    p = ac.oracle_alt_path(g, 0, 3, BLUE, BLUE)
    assert p is not None and p.holds_in(g)
    assert ac.oracle_alt_path(g, 0, 3, RED, BLUE) is None
    with pytest.raises(ValueError, match="^endpoints must differ$"):
        ac.oracle_alt_path(g, 1, 1, BLUE, RED)
    # endpoints are range-checked, never wrapped; the first offender is named
    for x, y, named in ((-1, 3, -1), (0, 4, 4), (4, -1, 4)):
        with pytest.raises(OutOfRangeError, match=rf"^vertex {named} outside 0\.\.3$"):
            ac.oracle_alt_path(g, x, y, BLUE, BLUE)


def test_oracle_merge_covers_both_cycles():
    g = ac.empty(8)
    c1 = ring(g, 0, 2)
    c2 = ring(g, 4, 2)
    # join them with a monochromatic 4-cycle across one edge of each
    g.add_edge(0, 4, BLUE).add_edge(1, 5, BLUE)
    merged = ac.oracle_merge(g, c1, c2)
    assert merged is not None
    assert ac.validate_cycle(g, merged)
    assert merged.vertex_set() == set(range(8))
    # and with no cross edges there is nothing to merge
    h = ac.empty(8)
    d1 = ring(h, 0, 2)
    d2 = ring(h, 4, 2)
    assert ac.oracle_merge(h, d1, d2) is None
