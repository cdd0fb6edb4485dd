"""Exhaustive ground-truth solvers for desk-scale instances (n <= ~12)."""
from __future__ import annotations

from .cycles import AltCycle, decode_cycles
from .graph import BLUE, RED, Color, ColoredMultigraph, alternating, bits
from .predicates import AltPath


def oracle_hamiltonian(g: ColoredMultigraph) -> AltCycle | None:
    """Exhaustive backtracking for an alternating Hamiltonian cycle."""
    return _spanning_cycle(g, (1 << g.n) - 1)


def _spanning_cycle(g: ColoredMultigraph, within: int) -> AltCycle | None:
    """Exhaustive backtracking for an alternating cycle through exactly the
    vertices of the mask `within`, starting at its lowest vertex.

    Alternation with two colors forces the color schedule from the first
    edge, so the search branches only on forced-color neighbors. An
    alternating cycle has even length, hence an odd count is immediately
    hopeless.
    """
    n = within.bit_count()
    if n < 2 or n % 2 != 0:
        return None
    start = (within & -within).bit_length() - 1
    seq = [start]

    def dfs(v: int, need: Color, first: Color, free: int) -> AltCycle | None:
        if len(seq) == n:
            if g.masks(need)[v] >> start & 1:
                return AltCycle(tuple(seq), alternating(first, n))
            return None
        for u in bits(g.masks(need)[v] & free):
            seq.append(u)
            found = dfs(u, need.other, first, free ^ 1 << u)
            if found is not None:
                return found
            seq.pop()
        return None

    for first in (BLUE, RED):
        found = dfs(start, first, first, within ^ 1 << start)
        if found is not None:
            return found
    return None


def oracle_factor(
    g: ColoredMultigraph, *, allow_two_cycles: bool = True
) -> tuple[AltCycle, ...] | None:
    """Exhaustive alternating-cycle-factor search.

    Backtracks over the choice of one blue and one red partner per vertex,
    one recursion frame per chosen pair; independent of the two per-color
    perfect matchings that find_alternating_cycle_factor computes.
    """
    n = g.n
    partner: dict[Color, list[int | None]] = {BLUE: [None] * n, RED: [None] * n}

    def fill(v: int, color: Color) -> bool:
        # the first empty slot from (v, color) on, vertex by vertex, blue first
        while v < n and partner[color][v] is not None:
            v, color = (v, RED) if color is BLUE else (v + 1, BLUE)
        if v == n:
            return True
        for u in bits(g.masks(color)[v]):
            if partner[color][u] is not None:
                continue
            if not allow_two_cycles and partner[color.other][v] == u:
                continue
            partner[color][v], partner[color][u] = u, v
            if fill(v, color):
                return True
            partner[color][v] = partner[color][u] = None
        return False

    if not fill(0, BLUE):
        return None
    return decode_cycles(partner, n)


def oracle_alt_path(
    g: ColoredMultigraph, x: int, y: int, first: Color, last: Color
) -> AltPath | None:
    """Exhaustive counterpart of exists_alternating_path: enumerate all simple
    (x, y)-paths ignoring colors, then test the forced color schedule."""
    if x == y:
        raise ValueError("endpoints must differ")
    g.check_vertices(x, y)
    blue, red = g.masks(BLUE), g.masks(RED)
    stack = [x]
    on = {x}

    def paths(v):
        if v == y:
            yield list(stack)
            return
        for u in bits(blue[v] | red[v]):
            if u in on:
                continue
            stack.append(u)
            on.add(u)
            yield from paths(u)
            stack.pop()
            on.remove(u)

    for seq in paths(x):
        cols = alternating(first, len(seq) - 1)
        if cols[-1] is last and g.has_walk(seq, cols):
            return AltPath(tuple(seq), cols)
    return None


def oracle_merge(
    g: ColoredMultigraph, c1: AltCycle, c2: AltCycle
) -> AltCycle | None:
    """Exhaustive search for an alternating cycle whose vertex set is exactly
    V(c1) union V(c2)."""
    union = sorted({*c1.vertices, *c2.vertices})
    g.check_vertices(*union)
    return _spanning_cycle(g, sum(1 << v for v in union))
