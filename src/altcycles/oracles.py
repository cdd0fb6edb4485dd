"""Exhaustive ground-truth solvers for desk-scale instances (n <= ~12)."""
from __future__ import annotations

from .cycles import (
    AltCycle,
    CycleFactor,
    cycle_from_vertex_sequence,
    decode_cycles,
)
from .graph import BLUE, RED, Color, ColoredMultigraph, induced_subgraph
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
                cols = tuple(first if k % 2 == 0 else first.other for k in range(n))
                return AltCycle(tuple(seq), cols)
            return None
        for u in sorted(g.neighbors_by_color(v, need)):
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
) -> CycleFactor | None:
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
        for u in sorted(g.neighbors_by_color(v, color)):
            if partner[color][u] is not None:
                continue
            if not allow_two_cycles and partner[color.other][v] == u:
                continue
            if not allow_two_cycles and partner[color.other][u] == v:
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
    return CycleFactor(tuple(decode_cycles(partner, n)))


def oracle_alt_path(
    g: ColoredMultigraph, x: int, y: int, first: Color, last: Color
) -> AltPath | None:
    """Exhaustive counterpart of exists_alternating_path: enumerate all simple
    (x, y)-paths ignoring colors, then test the forced color schedule."""
    if x == y:
        raise ValueError("endpoints must differ")
    stack = [x]
    on = {x}

    def paths(v):
        if v == y:
            yield list(stack)
            return
        for u in sorted(g.neighbors_any(v)):
            if u in on:
                continue
            stack.append(u)
            on.add(u)
            yield from paths(u)
            stack.pop()
            on.remove(u)

    for seq in paths(x):
        m = len(seq) - 1
        cols = tuple(first if k % 2 == 0 else first.other for k in range(m))
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
    assert merged is not None
    return merged
