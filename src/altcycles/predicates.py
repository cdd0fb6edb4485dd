"""Structural predicates: closure conditions, alternating path search,
color-connectivity. All return explicit witnesses on failure."""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .graph import BLUE, RED, Color, ColoredMultigraph, alternating, bits


class TwoPath(NamedTuple):
    """A 2-path (x1, x2, x3) with edge colors c1 = [x1,x2], c2 = [x2,x3];
    reported with x1 < x3 to avoid orientation duplicates. A tuple, so the
    scanner builds one per open 2-path cheaply."""

    x1: int
    x2: int
    x3: int
    c1: Color
    c2: Color

    def holds_in(self, g: ColoredMultigraph) -> bool:
        return (
            len({self.x1, self.x2, self.x3}) == 3
            and g.has_edge_color(self.x1, self.x2, self.c1)
            and g.has_edge_color(self.x2, self.x3, self.c2)
        )

    def endpoint_edge_missing(self, g: ColoredMultigraph) -> bool:
        return not g.has_edge_any(self.x1, self.x3)


@dataclass(frozen=True)
class AltPath:
    """A simple alternating path; colors[k] colors edge [vertices[k], vertices[k+1]]."""

    vertices: tuple[int, ...]
    colors: tuple[Color, ...]

    def well_formed(self) -> bool:
        vs = self.vertices
        if len(vs) < 2 or len(set(vs)) != len(vs):
            return False
        if len(self.colors) != len(vs) - 1:
            return False
        return all(a != b for a, b in zip(self.colors, self.colors[1:]))

    def holds_in(self, g: ColoredMultigraph) -> bool:
        return self.well_formed() and all(
            g.has_edge_color(u, v, c)
            for u, v, c in zip(self.vertices, self.vertices[1:], self.colors)
        )


def _open_two_paths(g: ColoredMultigraph, mono: bool) -> list[TwoPath]:
    """Every 2-path (x1, x2, x3), x1 < x3, whose endpoints have no edge at
    all, monochromatic or not as `mono` says, in (x1, x2, x3, c1) order.

    x2 and x3 are walked lowest bit first inline: the scan runs once per
    edge `closure_2m` adds, so it costs a step per 2-path it emits."""
    blue, red = g.masks(BLUE), g.masks(RED)
    # second-edge masks and colors after a blue and after a red first edge
    after_blue, after_red = (blue, red) if mono else (red, blue)
    then_blue, then_red = (BLUE, RED) if mono else (RED, BLUE)
    full = (1 << g.n) - 1
    out = []
    for x1 in range(g.n):
        b1, r1 = blue[x1], red[x1]
        # x3 > x1 and not a neighbor of x1
        far = full & ~(b1 | r1 | ((2 << x1) - 1))
        if not far:  # skips every row of a complete graph
            continue
        mid = b1 | r1
        while mid:
            low = mid & -mid
            mid ^= low
            x2 = low.bit_length() - 1
            from_b = after_blue[x2] & far if b1 & low else 0
            from_r = after_red[x2] & far if r1 & low else 0
            ends = from_b | from_r
            while ends:
                end = ends & -ends
                ends ^= end
                x3 = end.bit_length() - 1
                if from_b & end:
                    out.append(TwoPath(x1, x2, x3, BLUE, then_blue))
                if from_r & end:
                    out.append(TwoPath(x1, x2, x3, RED, then_red))
    return out


def two_m_violations(g: ColoredMultigraph) -> list[TwoPath]:
    """Every monochromatic 2-path whose endpoints have no edge at all."""
    return _open_two_paths(g, mono=True)


def two_nm_violations(g: ColoredMultigraph) -> list[TwoPath]:
    """Every non-monochromatic 2-path whose endpoints have no edge at all."""
    return _open_two_paths(g, mono=False)


def is_2m_closed(g: ColoredMultigraph) -> bool:
    return not two_m_violations(g)


def is_2nm_closed(g: ColoredMultigraph) -> bool:
    return not two_nm_violations(g)


def closed_alternating_witness(
    g: ColoredMultigraph,
) -> tuple[int, int, int, int] | None:
    """First alternating 3-path (x1, x2, x3, x4) with no closing alternating
    4-cycle (x1, y, w, x4, x1), or None if every one closes.

    Whether a 3-path closes depends on (x1, x4) alone, so each x4 that a
    3-path from x1 reaches is decided once, and the paths are walked only
    for an x1 that has an x4 failing to close."""
    adj = (g.masks(BLUE), g.masks(RED))  # indexed by `color is RED`
    for x1 in range(g.n):
        fails = 0
        for x4 in bits(_three_path_ends(adj, x1)):
            if not _closes(adj, x1, x4):
                fails |= 1 << x4
        if not fails:
            continue
        for c1 in (0, 1):
            for x2 in bits(adj[c1][x1]):
                for x3 in bits(adj[1 - c1][x2] & ~(1 << x1)):
                    ends = adj[c1][x3] & ~(1 << x2) & fails
                    if ends:
                        return (x1, x2, x3, (ends & -ends).bit_length() - 1)
    return None


def _three_path_ends(adj: tuple[list[int], list[int]], x1: int) -> int:
    """Mask of the last vertices x4 of the alternating 3-paths
    (x1, x2, x3, x4), in O(n) mask operations."""
    out = 0
    for c1 in (0, 1):
        first = adj[c1][x1]
        mids = 0
        for x2 in bits(first):
            mids |= adj[1 - c1][x2]
        for x3 in bits(mids & ~(1 << x1)):
            # the x2 that join x1 to x3; when only one does, it is no x4
            # through x3, since the path would meet it twice
            via = first & adj[1 - c1][x3]
            out |= adj[c1][x3] & ~(via if via & (via - 1) == 0 else 0)
    return out & ~(1 << x1)


def _closes(adj: tuple[list[int], list[int]], x1: int, x4: int) -> bool:
    # some y, w with (x1, y, w, x4, x1) alternating: [x1, y] and [w, x4] in
    # color a, [y, w] and [x4, x1] in the other
    ends = 1 << x1 | 1 << x4
    for a in (0, 1):
        if adj[1 - a][x4] >> x1 & 1:
            for y in bits(adj[a][x1] & ~ends):
                if adj[1 - a][y] & adj[a][x4] & ~ends:
                    return True
    return False


def is_closed_alternating(g: ColoredMultigraph) -> bool:
    return closed_alternating_witness(g) is None


def exists_alternating_path(
    g: ColoredMultigraph, x: int, y: int, first: Color, last: Color
) -> AltPath | None:
    """Some simple alternating (x, y)-path with the given first and last edge
    colors, or None.

    Colors along an alternating path are forced by the first edge, so the
    search is a DFS over simple paths with the color schedule fixed, on an
    explicit stack, trying neighbors lowest first.
    """
    if x == y:
        raise ValueError("endpoints must differ")
    g.check_vertices(x, y)
    adj = (g.masks(BLUE), g.masks(RED))
    need, want = first is RED, last is RED  # color indices into adj
    path = [x]
    on_path = 1 << x
    # per path vertex, its untried neighbors in the color its next edge needs
    untried = [adj[need][x] & ~on_path]
    while untried:
        cand = untried[-1]
        if not cand:
            untried.pop()
            on_path ^= 1 << path.pop()
            need = not need
            continue
        low = cand & -cand
        untried[-1] = cand ^ low
        u = low.bit_length() - 1
        if u == y:
            if need == want:
                return AltPath(tuple(path) + (y,), alternating(first, len(path)))
            continue
        path.append(u)
        on_path |= low
        need = not need
        untried.append(adj[need][u] & ~on_path)
    return None


@dataclass(frozen=True)
class ColorConnectivityWitness:
    """A vertex pair failing color-connectivity, with the per-(first,last)
    path existence table for that pair."""

    x: int
    y: int
    existence: dict[tuple[Color, Color], bool]


def color_connectivity_witness(g: ColoredMultigraph) -> ColorConnectivityWitness | None:
    """The first pair x < y, in row order, that has neither BB and RR nor BR
    and RB alternating x-y paths (keyed (first, last) by their end colors),
    or None if every pair has one of the two.

    A path reversed swaps (first, last), so unordered pairs suffice. Each
    pair runs BB, then RR only if BB found a path, then BR and RB only if
    that first test fails; only the failing pair fills all four entries,
    keys in BB, BR, RB, RR order.

    Every subpath of an alternating path is alternating, so every subpath
    of every path a search returns is recorded in one table for the call,
    and a query the table answers is True without a search. False comes
    only from a search, through the module global `exists_alternating_path`.
    The table keeps each pair once, under its smaller endpoint a, in 4n
    ints, row a of at most n - a - 1 bits: at most 2n*n bits, n*n/4 bytes,
    as the graph's masks take.
    """
    # known[f][l][a], indices `color is RED`, has bit b - a - 1 set when an
    # alternating a-b path, a < b, with first color f and last color l is known
    known = [[[0] * g.n for _ in range(2)] for _ in range(2)]
    for x in range(g.n):
        for y in range(x + 1, g.n):
            ex: dict[tuple[Color, Color], bool] = {}

            def found(first: Color, last: Color) -> bool:
                if (first, last) not in ex:
                    ok = bool(known[first is RED][last is RED][x] >> (y - x - 1) & 1)
                    if not ok:
                        path = exists_alternating_path(g, x, y, first, last)
                        if path is not None:
                            _record_subpaths(known, path)
                            ok = True
                    ex[(first, last)] = ok
                return ex[(first, last)]

            if (found(BLUE, BLUE) and found(RED, RED)) or (
                found(BLUE, RED) and found(RED, BLUE)
            ):
                continue
            table = {(f, l): found(f, l) for f in Color for l in Color}
            return ColorConnectivityWitness(x, y, table)
    return None


def _record_subpaths(known: list[list[list[int]]], path: AltPath) -> None:
    """Set the bit of every subpath of `path` in color_connectivity_witness's
    table, in O(len(path)) mask operations."""
    vs = path.vertices
    k0 = int(path.colors[0] is RED)  # edge k, [vs[k], vs[k+1]], has index k0 ^ k % 2
    ends = [0, 0]  # the vertices at even and at odd positions
    for i, v in enumerate(vs):
        ends[i % 2] |= 1 << v
    before = [0, 0]  # the same, before position i
    for i, v in enumerate(vs):
        p = i % 2
        for q in (0, 1):
            # to vs[j], j > i, j % 2 == q: first edge i, last edge j - 1
            known[k0 ^ p][k0 ^ 1 ^ q][v] |= (ends[q] ^ before[q]) >> (v + 1)
            # back to vs[j], j < i: first edge i - 1, last edge j
            known[k0 ^ 1 ^ p][k0 ^ q][v] |= before[q] >> (v + 1)
        before[p] |= 1 << v


def is_color_connected(g: ColoredMultigraph) -> bool:
    return color_connectivity_witness(g) is None
