"""Alternating cycle factors as two perfect matchings.

A spanning subgraph in which every vertex has exactly one blue and one red
incident edge is an alternating cycle factor, so a factor is a perfect
matching of the blue graph together with a perfect matching of the red
graph (a blue and a red edge on the same pair make a 2-cycle).

Each color is matched first on a bounded-degree spanning subgraph, in which
every vertex keeps only its first `CAP` edges to higher-numbered neighbours.
A perfect matching of that subgraph is one of the whole graph, so the factor
stays exact; all edges of the color are matched only when the subgraph has
no perfect matching. On dense graphs the subgraph has about half the edges
or fewer, and networkx's matching time grows with the edge count.
"""
from __future__ import annotations

from itertools import islice

import networkx as nx

from .cycles import AltCycle, decode_cycles
from .graph import BLUE, RED, Color, ColoredMultigraph, bits, reachable

# higher-numbered neighbours per vertex in the first, capped matching; a
# graph of at most CAP + 1 vertices is never capped
CAP = 16


def maximum_matching(edges: list[tuple[int, int]], n: int) -> list[int | None]:
    """Each vertex's partner in a maximum-cardinality matching of the plain
    graph on 0..n-1 with these edges, None where unmatched. The edges, u < v
    and ascending, come from `_perfect_matching`: all edges of one color or
    its capped subgraph, so every endpoint is in range."""
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
    less the pairs that `taken` matches; None when there is none. Each
    vertex's row holds its higher neighbours; the rows capped at `CAP` are
    matched first, unless the cap would leave every row whole."""
    rows = [mask >> (u + 1) << (u + 1) for u, mask in enumerate(g.masks(color))]
    if taken is not None:
        rows = [row & ~(1 << v) for row, v in zip(rows, taken)]
    if any(row.bit_count() > CAP for row in rows):
        capped = [(u, v) for u, row in enumerate(rows) for v in islice(bits(row), CAP)]
        partner = maximum_matching(capped, g.n)
        if None not in partner:
            return partner
    partner = maximum_matching([(u, v) for u, row in enumerate(rows) for v in bits(row)], g.n)
    return None if None in partner else partner


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
