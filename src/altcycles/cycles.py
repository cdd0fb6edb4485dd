"""Alternating cycles and cycle factors."""
from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass

from .graph import BLUE, Color, ColoredMultigraph, alternating


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

    def reverse(self) -> AltCycle:
        """Traversal in the opposite direction, same first vertex.

        Keeps the odd/even position classes (length is even), flips the
        color of the first edge.
        """
        verts = (self.vertices[0],) + tuple(self.vertices[:0:-1])
        cols = tuple(self.colors[::-1])
        return AltCycle(verts, cols)

    def rotate(self, k: int) -> AltCycle:
        m = len(self.vertices)
        k %= m
        return AltCycle(
            self.vertices[k:] + self.vertices[:k], self.colors[k:] + self.colors[:k]
        )

    def well_formed(self) -> bool:
        """Structural invariants not involving a host graph."""
        m = len(self.vertices)
        if m < 2 or m % 2 != 0:
            return False
        if len(set(self.vertices)) != m:
            return False
        return all(self.colors[k] != self.colors[(k + 1) % m] for k in range(m))


def decode_cycles(partner: Mapping[Color, Sequence[int]], n: int) -> tuple[AltCycle, ...] | None:
    """Cycles of the factor in which v's blue and red partners are
    partner[BLUE][v] and partner[RED][v]; None for n = 0 (no factor is empty).

    Each cycle starts at its smallest vertex and takes the blue edge first;
    cycles come in order of their smallest vertex.
    """
    seen: set[int] = set()
    cycles = []
    for start in range(n):
        if start in seen:
            continue
        verts = [start]
        v, color = start, BLUE
        while True:
            u = partner[color][v]
            seen.add(v)
            if u == start:
                break
            verts.append(u)
            v, color = u, color.other
        cycles.append(AltCycle(tuple(verts), alternating(BLUE, len(verts))))
    return tuple(cycles) or None


def validate_cycle(g: ColoredMultigraph, cycle: AltCycle) -> bool:
    """Check all AltCycle invariants against the host graph; a vertex
    outside 0..n-1 makes the cycle invalid, not an error."""
    return cycle.well_formed() and g.has_walk(cycle.vertices + cycle.vertices[:1], cycle.colors)


def validate_factor(g: ColoredMultigraph, cycles: Iterable[AltCycle]) -> bool:
    """Whether `cycles` is an alternating cycle factor of g: at least one
    cycle, every cycle valid in g, and each vertex of g on exactly one."""
    cycles = tuple(cycles)
    spanned = sorted(v for c in cycles for v in c.vertices)
    valid = all(validate_cycle(g, c) for c in cycles)
    return bool(cycles) and valid and spanned == list(range(g.n))


def cycle_from_vertex_sequence(
    g: ColoredMultigraph, seq: list[int] | tuple[int, ...]
) -> AltCycle | None:
    """Alternating cycle of g visiting `seq` in order, or None; None also
    when a vertex of `seq` is outside g.

    Alternation forces the colors once the first edge's color is chosen, so
    both choices are tried.
    """
    for first in Color:
        cycle = AltCycle(tuple(seq), alternating(first, len(seq)))
        if validate_cycle(g, cycle):
            return cycle
    return None
