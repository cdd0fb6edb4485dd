"""Alternating cycles and cycle factors."""
from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass

from .graph import BLUE, Color, ColoredMultigraph


@dataclass(frozen=True)
class AltCycle:
    """An alternating cycle: vertices (v_0..v_{m-1}) and colors where
    colors[k] is the color of edge [v_k, v_{k+1 mod m}].

    Positions are 0-based here; the odd-subscript vertex class of the
    1-based convention is `i_set` (even 0-based positions).
    """

    vertices: tuple[int, ...]
    colors: tuple[Color, ...]

    def __post_init__(self):
        if len(self.vertices) != len(self.colors):
            raise ValueError("vertex/color length mismatch")

    def __len__(self) -> int:
        return len(self.vertices)

    @property
    def i_set(self) -> set[int]:
        return {v for k, v in enumerate(self.vertices) if k % 2 == 0}

    @property
    def p_set(self) -> set[int]:
        return {v for k, v in enumerate(self.vertices) if k % 2 == 1}

    def vertex_set(self) -> set[int]:
        return set(self.vertices)

    def reverse(self) -> AltCycle:
        """Traversal in the opposite direction, same first vertex.

        Keeps the odd/even position classes (length is even), flips the
        color of the first edge.
        """
        m = len(self.vertices)
        verts = (self.vertices[0],) + tuple(self.vertices[:0:-1])
        cols = tuple(self.colors[::-1])
        return AltCycle(verts, cols)

    def rotate(self, k: int) -> AltCycle:
        m = len(self.vertices)
        k %= m
        return AltCycle(
            self.vertices[k:] + self.vertices[:k], self.colors[k:] + self.colors[:k]
        )

    def canonical(self) -> AltCycle:
        """Smallest-vertex-first, lexicographically smallest form; for
        equality in tests only."""
        best = None
        for base in (self, self.reverse()):
            k = base.vertices.index(min(base.vertices))
            cand = base.rotate(k)
            key = (cand.vertices, tuple(c.value for c in cand.colors))
            if best is None or key < best[0]:
                best = (key, cand)
        return best[1]

    def well_formed(self) -> bool:
        """Structural invariants not involving a host graph."""
        m = len(self.vertices)
        if m < 2 or m % 2 != 0:
            return False
        if len(set(self.vertices)) != m:
            return False
        return all(self.colors[k] != self.colors[(k + 1) % m] for k in range(m))


@dataclass(frozen=True)
class CycleFactor:
    cycles: tuple[AltCycle, ...]

    def __len__(self) -> int:
        return len(self.cycles)

    def __iter__(self):
        return iter(self.cycles)


def decode_cycles(
    partner: Mapping[Color, Mapping[int, int] | Sequence[int]], n: int
) -> list[AltCycle]:
    """Cycles of the factor in which v's blue and red partners are
    partner[BLUE][v] and partner[RED][v] (dicts or lists indexed by vertex).

    Each cycle starts at its smallest vertex and takes the blue edge first;
    cycles come in order of their smallest vertex.
    """
    seen: set[int] = set()
    cycles = []
    for start in range(n):
        if start in seen:
            continue
        verts = [start]
        cols = []
        v, color = start, BLUE
        while True:
            u = partner[color][v]
            cols.append(color)
            seen.add(v)
            if u == start:
                break
            verts.append(u)
            v, color = u, color.other
        cycles.append(AltCycle(tuple(verts), tuple(cols)))
    return cycles


def validate_cycle(g: ColoredMultigraph, cycle: AltCycle) -> bool:
    """Check all AltCycle invariants against the host graph."""
    if not cycle.well_formed():
        return False
    m = len(cycle)
    return all(
        g.has_edge_color(cycle.vertices[k], cycle.vertices[(k + 1) % m], cycle.colors[k])
        for k in range(m)
    )


def validate_factor(g: ColoredMultigraph, factor: CycleFactor) -> bool:
    covered: set[int] = set()
    for cycle in factor:
        if not validate_cycle(g, cycle):
            return False
        vs = cycle.vertex_set()
        if covered & vs:
            return False
        covered |= vs
    return covered == set(range(g.n))


def cycle_from_vertex_sequence(
    g: ColoredMultigraph, seq: list[int] | tuple[int, ...]
) -> AltCycle | None:
    """Alternating cycle visiting `seq` in order, or None.

    With two colors, alternation forces the color pattern up to the choice
    of the first edge's color, so both parities are tried.
    """
    m = len(seq)
    if m < 2 or m % 2 != 0 or len(set(seq)) != m:
        return None
    for first in Color:
        cols = tuple(first if k % 2 == 0 else first.other for k in range(m))
        if all(
            g.has_edge_color(seq[k], seq[(k + 1) % m], cols[k]) for k in range(m)
        ):
            return AltCycle(tuple(seq), cols)
    return None
