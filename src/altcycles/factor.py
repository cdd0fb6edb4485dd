"""Alternating cycle factors as two perfect matchings.

A spanning subgraph in which every vertex has exactly one blue and one red
incident edge is an alternating cycle factor, so a factor is a perfect
matching of the blue graph together with a perfect matching of the red
graph (a blue and a red edge on the same pair make a 2-cycle).
"""
from __future__ import annotations

from itertools import islice

import networkx as nx

from .cycles import AltCycle, decode_cycles
from .graph import Color, ColoredMultigraph, OutOfRangeError, bits


def maximum_matching(edges: list[tuple[int, int]], n: int) -> list[int | None]:
    """Each vertex's partner in a maximum-cardinality matching of the plain
    graph on 0..n-1 with these edges, None where unmatched. Raises
    OutOfRangeError on an endpoint outside 0..n-1."""
    h = nx.Graph()
    h.add_nodes_from(range(n))
    h.add_edges_from(edges)
    if h.number_of_nodes() != n:  # the nodes past the first n are stray endpoints
        raise OutOfRangeError(f"vertex {next(islice(h, n, None))} outside 0..{n - 1}")
    partner: list[int | None] = [None] * n
    for u, v in nx.max_weight_matching(h, maxcardinality=True):
        partner[u], partner[v] = v, u
    # networkx caches views that point back at h, which makes h a reference
    # cycle; emptied here, its adjacency is freed now, not by the next full
    # collection
    h.clear()
    return partner


def _edges(g: ColoredMultigraph, color: Color) -> list[tuple[int, int]]:
    """The (u, v) pairs, u < v, of the edges of `color`, ascending."""
    return [
        (u, v) for u, mask in enumerate(g.masks(color)) for v in bits(mask >> (u + 1) << (u + 1))
    ]


def find_alternating_cycle_factor(g: ColoredMultigraph) -> tuple[AltCycle, ...] | None:
    """Alternating cycle factor of g, or None if none exists."""
    partner: dict[Color, list[int | None]] = {}
    for color in Color:
        partner[color] = maximum_matching(_edges(g, color), g.n)
        if None in partner[color]:
            return None
    return decode_cycles(partner, g.n)


def find_factor_without_two_cycles(g: ColoredMultigraph) -> tuple[AltCycle, ...] | None:
    """An alternating cycle factor of g without a 2-cycle, or None.

    One color is matched perfectly, then the other on its edges minus the
    pairs already matched, blue first and then red first. None when neither
    order completes, which does not prove that no such factor exists.
    """
    for first in Color:
        taken = maximum_matching(_edges(g, first), g.n)
        if None in taken:  # g has no factor at all
            return None
        rest = [(u, v) for u, v in _edges(g, first.other) if taken[u] != v]
        partner = {first: taken, first.other: maximum_matching(rest, g.n)}
        if None not in partner[first.other]:
            return decode_cycles(partner, g.n)
    return None
