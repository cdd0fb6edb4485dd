"""Alternating cycle factors as two perfect matchings.

A spanning subgraph in which every vertex has exactly one blue and one red
incident edge is an alternating cycle factor, so a factor is a perfect
matching of the blue graph together with a perfect matching of the red
graph (a blue and a red edge on the same pair make a 2-cycle).
"""
from __future__ import annotations

import networkx as nx

from .cycles import CycleFactor, decode_cycles
from .graph import Color, ColoredMultigraph


def maximum_matching(
    edges: list[tuple[object, object]], nodes: list[object] = ()
) -> set[frozenset]:
    """Maximum-cardinality matching of a plain graph (general graphs)."""
    h = nx.Graph()
    h.add_nodes_from(nodes)
    h.add_edges_from(edges)
    matching = nx.max_weight_matching(h, maxcardinality=True)
    return {frozenset(e) for e in matching}


def find_alternating_cycle_factor(g: ColoredMultigraph) -> CycleFactor | None:
    """Alternating cycle factor of g, or None if none exists."""
    all_edges = g.edges()
    partner: dict[Color, dict[int, int]] = {}
    for color in Color:
        edges = [(u, v) for u, v, c in all_edges if c is color]
        matching = maximum_matching(edges, range(g.n))
        if 2 * len(matching) != g.n:
            return None
        partner[color] = {}
        for e in matching:
            u, v = tuple(e)
            partner[color][u] = v
            partner[color][v] = u
    return CycleFactor(tuple(decode_cycles(partner, g.n)))
