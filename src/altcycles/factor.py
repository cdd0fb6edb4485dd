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
from .graph import BLUE, RED, Color, ColoredMultigraph, OutOfRangeError, bits, reachable


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
    return _two_matchings(g, BLUE, disjoint=False)


def find_factor_without_two_cycles(g: ColoredMultigraph) -> tuple[AltCycle, ...] | None:
    """An alternating cycle factor of g without a 2-cycle, or None.

    One color is matched perfectly, then the other on its edges minus the
    pairs already matched, blue first and then red first. None when neither
    order completes, which does not prove that no such factor exists.
    """
    return _two_matchings(g, BLUE, disjoint=True) or _two_matchings(g, RED, disjoint=True)


def _two_matchings(
    g: ColoredMultigraph, first: Color, disjoint: bool
) -> tuple[AltCycle, ...] | None:
    """The factor of a perfect matching of `first` and one of the other
    color, which leaves out the first's matched pairs if `disjoint`; None
    when either matching is not perfect."""
    if _odd_component(g, BLUE) or _odd_component(g, RED):
        return None
    taken = maximum_matching(_edges(g, first), g.n)
    if None in taken:
        return None
    rest = [(u, v) for u, v in _edges(g, first.other) if not disjoint or taken[u] != v]
    partner = {first: taken, first.other: maximum_matching(rest, g.n)}
    return None if None in partner[first.other] else decode_cycles(partner, g.n)


def _odd_component(g: ColoredMultigraph, color: Color) -> bool:
    """Whether the edges of `color` leave a component of odd order, which no
    perfect matching covers (Tutte 1947, with S empty). Deleting edges from
    an odd component leaves an odd part, so this also rules out the
    matching on a subset of those edges."""
    left = (1 << g.n) - 1
    while left:
        part = reachable(g, (left & -left).bit_length() - 1, color=color)
        if part.bit_count() % 2:
            return True
        left ^= part
    return False
