"""Alternating cycle factors as two perfect matchings.

A spanning subgraph in which every vertex has exactly one blue and one red
incident edge is an alternating cycle factor, so a factor is a perfect
matching of the blue graph together with a perfect matching of the red
graph (a blue and a red edge on the same pair make a 2-cycle).

When some vertex has more than `LONG_ROW` edges of a color to
higher-numbered neighbours, that color is first matched greedily on its bit
masks, with one-swap repairs (`_greedy_matching`). Any perfect matching of
the color will do, so a perfect greedy one keeps the factor exact; the
greedy tier never answers "no", and when it leaves a vertex unmatched, all
edges of the color go to networkx's blossom matching, which decides. On a
dense color the greedy matching is perfect or nearly so (Karp and Sipser,
1981) and costs n mask operations plus one per neighbour of each vertex it
repairs, where the blossom's time grows with the edge count. A graph of at
most `LONG_ROW` + 1 vertices has no long row, so every small graph, where
the blossom is cheap anyway, is matched by networkx alone.
"""
from __future__ import annotations

import networkx as nx

from .cycles import AltCycle, decode_cycles
from .graph import BLUE, RED, Color, ColoredMultigraph, bits, reachable

# the greedy matching is tried only when some row has more higher-numbered
# neighbours than this, so a graph of at most LONG_ROW + 1 vertices never
# takes it
LONG_ROW = 16


def maximum_matching(edges: list[tuple[int, int]], n: int) -> list[int | None]:
    """Each vertex's partner in a maximum-cardinality matching of the plain
    graph on 0..n-1 with these edges, None where unmatched. The edges, u < v
    and ascending, come from `_perfect_matching`: all edges of one color,
    less the pairs it leaves out, so every endpoint is in range. This is the
    exact tier, run on every color without a long row and wherever the
    greedy matching fails."""
    h = nx.Graph()
    h.add_nodes_from(range(n))
    h.add_edges_from(edges)
    partner: list[int | None] = [None] * n
    for u, v in nx.max_weight_matching(h, maxcardinality=True):
        partner[u], partner[v] = v, u
    # networkx caches views that point back at h, which makes h a reference
    # cycle; emptied here, its adjacency is freed now, not by the next full
    # collection
    h.clear()
    return partner


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
    taken = _perfect_matching(g, first, None)
    if taken is None:
        return None
    rest = _perfect_matching(g, first.other, taken if disjoint else None)
    return None if rest is None else decode_cycles({first: taken, first.other: rest}, g.n)


def _perfect_matching(
    g: ColoredMultigraph, color: Color, taken: list[int] | None
) -> list[int] | None:
    """Each vertex's partner in a perfect matching of the edges of `color`,
    less the pairs that `taken` matches; None when there is none. When some
    vertex has more than `LONG_ROW` higher neighbours, a greedy matching is
    tried first; the blossom matching on all the edges decides otherwise."""
    masks = g.masks(color)
    if taken is not None:
        masks = [mask & ~(1 << v) for mask, v in zip(masks, taken)]
    rows = [mask >> (u + 1) << (u + 1) for u, mask in enumerate(masks)]
    if any(row.bit_count() > LONG_ROW for row in rows):
        partner = _greedy_matching(masks)
        if partner is not None:
            return partner
    partner = maximum_matching([(u, v) for u, row in enumerate(rows) for v in bits(row)], g.n)
    return None if None in partner else partner


def _greedy_matching(masks: list[int]) -> list[int] | None:
    """A perfect matching of the graph with these neighbour masks, or None
    when the greedy pass and its repairs leave a vertex unmatched, which
    does not prove that there is none.

    Each vertex, ascending, still free is matched to its lowest free
    neighbour. The free vertices left then have no free neighbour, and each
    in turn is repaired by one swap: a neighbour a, matched to b, where b
    has a free neighbour w (not u), becomes u-a and b-w. The first vertex
    with no such swap ends the tier, so each free vertex is visited once."""
    partner: list[int] = [0] * len(masks)
    free = (1 << len(masks)) - 1
    for u, mask in enumerate(masks):
        spare = mask & free
        if free >> u & 1 and spare:
            v = (spare & -spare).bit_length() - 1
            partner[u], partner[v] = v, u
            free ^= 1 << u | 1 << v
    while free:
        u = (free & -free).bit_length() - 1
        for a in bits(masks[u]):
            b = partner[a]
            spare = masks[b] & free & ~(1 << u)
            if spare:
                w = (spare & -spare).bit_length() - 1
                partner[u], partner[a], partner[b], partner[w] = a, u, w, b
                free ^= 1 << u | 1 << w
                break
        else:
            return None
    return partner


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
