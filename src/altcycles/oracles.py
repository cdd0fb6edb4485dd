"""Exhaustive ground-truth solvers for desk-scale instances (n <= ~12)."""
from __future__ import annotations

from .cycles import (
    AltCycle,
    cycle_from_vertex_sequence,
    decode_cycles,
)
from .graph import (
    BLUE,
    RED,
    Color,
    ColoredMultigraph,
    alternating,
    bits,
    induced_subgraph,
)
from .predicates import AltPath


def oracle_hamiltonian(g: ColoredMultigraph) -> AltCycle | None:
    """Exhaustive backtracking for an alternating Hamiltonian cycle.

    Alternation with two colors forces the color schedule from the first
    edge, so the search branches only on forced-color neighbors. An
    alternating cycle has even length, hence odd n is immediately hopeless.
    """
    n = g.n
    if n < 2 or n % 2 != 0:
        return None
    used = [False] * n
    used[0] = True
    seq = [0]

    def dfs(v: int, need: Color, first: Color) -> AltCycle | None:
        if len(seq) == n:
            if g.has_edge_color(v, 0, need):
                return AltCycle(tuple(seq), alternating(first, n))
            return None
        for u in bits(g.masks(need)[v]):
            if used[u]:
                continue
            used[u] = True
            seq.append(u)
            found = dfs(u, need.other, first)
            if found is not None:
                return found
            seq.pop()
            used[u] = False
        return None

    for first in (BLUE, RED):
        found = dfs(0, first, first)
        if found is not None:
            return found
    return None


def oracle_factor(
    g: ColoredMultigraph, *, allow_two_cycles: bool = True
) -> tuple[AltCycle, ...] | None:
    """Exhaustive alternating-cycle-factor search.

    Backtracks over the choice of one blue and one red partner per vertex;
    independent of the two per-color perfect matchings that
    find_alternating_cycle_factor computes.
    """
    n = g.n
    partner: dict[Color, list[int | None]] = {
        BLUE: [None] * n,
        RED: [None] * n,
    }

    slots = [(v, c) for v in range(n) for c in (BLUE, RED)]

    def fill(k: int) -> bool:
        if k == len(slots):
            return True
        v, color = slots[k]
        if partner[color][v] is not None:
            return fill(k + 1)
        for u in bits(g.masks(color)[v]):
            if partner[color][u] is not None:
                continue
            if not allow_two_cycles and partner[color.other][v] == u:
                continue
            partner[color][v] = u
            partner[color][u] = v
            if fill(k + 1):
                return True
            partner[color][v] = None
            partner[color][u] = None
        return False

    if not fill(0):
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
        m = len(seq) - 1
        cols = alternating(first, m)
        if cols[-1] is not last:
            continue
        if all(g.has_edge_color(seq[k], seq[k + 1], cols[k]) for k in range(m)):
            return AltPath(tuple(seq), cols)
    return None


def oracle_merge(
    g: ColoredMultigraph, c1: AltCycle, c2: AltCycle
) -> AltCycle | None:
    """Exhaustive search for an alternating cycle whose vertex set is exactly
    V(c1) union V(c2)."""
    union = sorted(c1.vertex_set() | c2.vertex_set())
    sub, labels = induced_subgraph(g, union)
    found = oracle_hamiltonian(sub)
    if found is None:
        return None
    verts = tuple(labels[v] for v in found.vertices)
    merged = cycle_from_vertex_sequence(g, verts)
    if merged is None:  # an induced subgraph keeps every edge of g it spans
        raise RuntimeError("cycle of the induced subgraph is not a cycle of g")
    return merged
