"""Deterministic instance generators: complete colorings, closure
completion, and the 2-NM-closed counterexample family."""
from __future__ import annotations

import random

from .cycles import AltCycle, validate_cycle
from .graph import BLUE, RED, Color, ColoredMultigraph, alternating, empty, reachable
from .predicates import is_2nm_closed, two_m_violations


class ConstructionFailed(Exception):
    """The counterexample construction violated one of its own guarantees."""


def gen_complete(n: int, seed: int) -> ColoredMultigraph:
    """Complete graph, each pair colored uniformly at random from the seed."""
    if n < 1:
        raise ValueError("n must be at least 1")
    rng = random.Random(seed)
    g = empty(n)
    for u in range(n):
        for v in range(u + 1, n):
            g.add_edge(u, v, BLUE if rng.getrandbits(1) else RED)
    return g


def gen_random(n: int, seed: int, density: float = 0.5) -> ColoredMultigraph:
    """Random 2-edge-colored multigraph: each (pair, color) edge present
    independently with the given probability."""
    if not 0 <= density <= 1:  # NaN fails too
        raise ValueError("density must be between 0 and 1")
    rng = random.Random(seed)
    g = empty(n)
    for u in range(n):
        for v in range(u + 1, n):
            for color in (BLUE, RED):
                if rng.random() < density:
                    g.add_edge(u, v, color)
    return g


def closure_2m(
    g: ColoredMultigraph, seed: int = 0, color: str = "random"
) -> ColoredMultigraph:
    """Smallest-violation-first completion to a 2-M-closed supergraph.

    `color` picks the added edge color: 'B', 'R', or 'random' (seed-derived).
    """
    fixed = None if color == "random" else Color.from_letter(color)
    rng = random.Random(seed)
    out = g.copy()
    while True:
        # every open 2-path, though [0] is read: the benchmark hooks this name,
        # and a stop-at-first loop pushed the closure workload's peak RSS past its bound
        violations = two_m_violations(out)
        if not violations:
            return out
        v = violations[0]
        out.add_edge(v.x1, v.x3, fixed or (BLUE if rng.getrandbits(1) else RED))


def counterexample_cycles(k1: int, k2: int) -> tuple[AltCycle, AltCycle]:
    """The two alternating cycles the counterexample family is built on."""

    def ring(offset: int, half: int) -> AltCycle:
        return AltCycle(tuple(range(offset, offset + 2 * half)), alternating(BLUE, 2 * half))

    return ring(0, k1), ring(2 * k1, k2)


def gen_counterexample(k1: int, k2: int) -> ColoredMultigraph:
    """Color-connected 2-NM-closed graph with a cycle factor but no
    alternating Hamiltonian cycle.

    Each blue edge {2i, 2i+1} is a block, and a link joins two blocks by all
    four red edges between them. Blocks 0..k1-1 and k1..k1+k2-1 form two
    rings of links, which carry the factor's cycles, and one more link joins
    block 0 to block k1. All four claimed properties are verified in
    polynomial time before returning.
    """
    if k1 < 2 or k2 < 2:
        raise ValueError("cycle half-lengths must be at least 2")
    c1, c2 = counterexample_cycles(k1, k2)
    n = 2 * (k1 + k2)
    g = empty(n)
    for a in range(n // 2):
        g.add_edge(2 * a, 2 * a + 1, BLUE)
    rings = [(off + i, off + (i + 1) % k) for off, k in ((0, k1), (k1, k2)) for i in range(k)]
    for a, b in [*rings, (0, k1)]:
        for u in (2 * a, 2 * a + 1):
            for v in (2 * b, 2 * b + 1):
                g.add_edge(u, v, RED)

    blue, red = g.masks(BLUE), g.masks(RED)
    full = (1 << n) - 1
    evens = full // 3  # bits 0, 2, 4, ...
    matched = all(blue[v] == 1 << (v ^ 1) for v in range(n))
    failures = []
    if not is_2nm_closed(g):
        failures.append("not 2-NM-closed")
    # When the blue edges are the blocks and red neighborhoods are whole blocks
    # shared by partners, a path crosses each block by its blue edge between
    # red links: a path of blocks gives all four end-color pairs, and partners
    # have BB by their blue edge and RR through a linked block: connected is enough.
    if not (
        matched
        and all(red[v] == red[v ^ 1] and (red[v] & evens) * 3 == red[v] for v in range(n))
        and reachable(g, 0) == full
    ):
        failures.append("not color-connected")
    if not (validate_cycle(g, c1) and validate_cycle(g, c2)):
        failures.append("factor cycles broken")
    # When the blue edges are the blocks (at least three), an alternating
    # Hamiltonian cycle uses every blue edge, so its red edges form a
    # Hamiltonian cycle of the graph of blocks, which has no cut node. Block
    # {0, 1} is one: the rest of the graph falls apart without it.
    if not (matched and reachable(g, 2, avoid=0b11) | 0b11 != full):
        failures.append("alternating Hamiltonian cycle exists")
    if failures:
        raise ConstructionFailed("; ".join(failures))
    return g
