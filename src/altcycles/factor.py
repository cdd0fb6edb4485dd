"""Alternating cycle factors as two perfect matchings.

A spanning subgraph in which every vertex has exactly one blue and one red
incident edge is an alternating cycle factor, so a factor is a perfect
matching of the blue graph together with a perfect matching of the red
graph (a blue and a red edge on the same pair make a 2-cycle).
"""
from __future__ import annotations

import networkx as nx

from .cycles import AltCycle, decode_cycles
from .graph import Color, ColoredMultigraph


def maximum_matching(edges: list[tuple[int, int]], n: int) -> list[int | None]:
    """Each vertex's partner in a maximum-cardinality matching of the plain
    graph on 0..n-1 with these edges, None where unmatched."""
    h = nx.Graph()
    h.add_nodes_from(range(n))
    h.add_edges_from(edges)
    partner: list[int | None] = [None] * n
    for u, v in nx.max_weight_matching(h, maxcardinality=True):
        partner[u], partner[v] = v, u
    return partner


def find_alternating_cycle_factor(g: ColoredMultigraph) -> tuple[AltCycle, ...] | None:
    """Alternating cycle factor of g, or None if none exists."""
    all_edges = g.edges()
    partner: dict[Color, list[int | None]] = {}
    for color in Color:
        edges = [(u, v) for u, v, c in all_edges if c is color]
        partner[color] = maximum_matching(edges, g.n)
        if None in partner[color]:
            return None
    return decode_cycles(partner, g.n)
