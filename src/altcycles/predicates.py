"""Structural predicates: closure conditions, alternating path search,
color-connectivity. All return explicit witnesses on failure."""
from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from typing import NamedTuple

from .graph import BLUE, RED, Color, ColoredMultigraph, alternating, bits

_COLORS = (BLUE, RED)  # indexed by `color is RED`


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
        return len({self.x1, self.x2, self.x3}) == 3 and g.has_walk(
            (self.x1, self.x2, self.x3), (self.c1, self.c2)
        )

    def endpoint_edge_missing(self, g: ColoredMultigraph) -> bool:
        return not any(g.has_walk((self.x1, self.x3), (c,)) for c in Color)


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
        return self.well_formed() and g.has_walk(self.vertices, self.colors)


def open_two_paths(g: ColoredMultigraph, mono: bool) -> Iterator[TwoPath]:
    """Yield every 2-path (x1, x2, x3), x1 < x3, whose endpoints have no
    edge at all, monochromatic or not as `mono` says, in (x1, x2, x3, c1)
    order. A caller that needs one witness reads the first and stops: a
    10,000-vertex star has about 50M of them.

    x2 and x3 are walked lowest bit first inline: the scan runs once per
    edge `closure_2m` adds, so it costs a step per 2-path it emits."""
    blue, red = g.masks(BLUE), g.masks(RED)
    # second-edge masks and colors after a blue and after a red first edge
    after_blue, after_red = (blue, red) if mono else (red, blue)
    then_blue, then_red = (BLUE, RED) if mono else (RED, BLUE)
    full = (1 << g.n) - 1
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
                    yield TwoPath(x1, x2, x3, BLUE, then_blue)
                if from_r & end:
                    yield TwoPath(x1, x2, x3, RED, then_red)


def two_m_violations(g: ColoredMultigraph) -> list[TwoPath]:
    """Every monochromatic 2-path whose endpoints have no edge at all."""
    return list(open_two_paths(g, mono=True))


def two_nm_violations(g: ColoredMultigraph) -> list[TwoPath]:
    """Every non-monochromatic 2-path whose endpoints have no edge at all."""
    return list(open_two_paths(g, mono=False))


def is_2m_closed(g: ColoredMultigraph) -> bool:
    return next(open_two_paths(g, mono=True), None) is None


def is_2nm_closed(g: ColoredMultigraph) -> bool:
    return next(open_two_paths(g, mono=False), None) is None


def closed_alternating_witness(
    g: ColoredMultigraph,
) -> tuple[int, int, int, int] | None:
    """First alternating 3-path (x1, x2, x3, x4) with no closing alternating
    4-cycle (x1, y, w, x4, x1), or None if every one closes.

    A closing cycle is an alternating 3-path (x1, y, w, x4) with some first
    color a plus an [x4, x1] edge of the other color. So if E_a holds the
    ends of x1's 3-paths with first color a, the ends that fail to close are
    (E_0 | E_1) & ~(E_0 & red[x1] | E_1 & blue[x1]). E_a is read off
    `_two_steps`, in O(m) mask operations over all x1, and the paths are
    walked only for an x1 that has an end failing to close."""
    adj = (g.masks(BLUE), g.masks(RED))  # indexed by `color is RED`
    steps = [_two_steps(adj, a) for a in (0, 1)]
    for x1 in range(g.n):
        reach = []
        for a, (once, twice) in enumerate(steps):
            own, e = adj[a][x1], 0
            for x2 in bits(own):
                # when x1 is itself a mid of x2, an x4 it leads to needs
                # another mid, or the path would meet x1 twice
                e |= once[x2] & ~own | twice[x2] & own if adj[1 - a][x2] >> x1 & 1 else once[x2]
            reach.append(e & ~(1 << x1))
        e0, e1 = reach
        fails = (e0 | e1) & ~(e0 & adj[1][x1] | e1 & adj[0][x1])
        if not fails:
            continue
        for c1 in (0, 1):
            for x2 in bits(adj[c1][x1]):
                for x3 in bits(adj[1 - c1][x2] & ~(1 << x1)):
                    ends = adj[c1][x3] & ~(1 << x2) & fails
                    if ends:
                        return (x1, x2, x3, (ends & -ends).bit_length() - 1)
    return None


def _two_steps(adj: tuple[list[int], list[int]], a: int) -> tuple[list[int], list[int]]:
    """Per x2, the x4 != x2 that an edge of color 1 - a to a mid x3 and then
    an a-edge reach, as two masks: `once`, through at least one mid, and
    `twice`, through two or more. O(m) mask operations, n²/4 bytes at most."""
    once, twice, last = [], [], adj[a]
    for x2, mids in enumerate(adj[1 - a]):
        o = t = 0
        for x3 in bits(mids):
            t |= o & last[x3]
            o |= last[x3]
        keep = ~(1 << x2)
        once.append(o & keep)
        twice.append(t & keep)
    return once, twice


def is_closed_alternating(g: ColoredMultigraph) -> bool:
    return closed_alternating_witness(g) is None


def exists_alternating_path(
    g: ColoredMultigraph, x: int, y: int, first: Color, last: Color
) -> AltPath | None:
    """Some simple alternating (x, y)-path with the given first and last edge
    colors, or None.

    Colors along an alternating path are forced by the first edge, so the
    search is a DFS over simple paths with the color schedule fixed, on an
    explicit stack, trying neighbors lowest first. Every path it returns
    enters y by an edge of color `last` from one of y's `last`-colored
    neighbors, so once all of them are on the path, only a step to y can
    still finish: at the root and at every push, the new vertex's untried
    neighbors are then cut to y alone. No path is lost, so the search
    returns the same paths as one without the rule. When y has no
    `last`-colored edge, the root keeps only y, so the answer is None
    before the first push.

    After each backtrack, the next candidate u other than y is also tested
    by `_walk_reaches`, in O(n) mask operations: u is skipped when no
    alternating walk leaves u by its next color, enters no path vertex and
    not u, and enters y by a `last`-colored edge. A path is such a walk, so
    this check keeps the same paths too. It runs once per backtrack, not per
    push: a backtrack is where a search that walks the same dead branches
    over and over (around the rings of `gen_counterexample`) is cut short,
    and a check at every push costs more than it saves on small graphs.

    A simple path takes fewer than n pushes, so a search at its n-th push
    has backtracked. It then runs the walk test once on x itself, from its
    first color, and returns None if no walk reaches y. The test after a
    backtrack sees only the first sibling, so without this a search whose
    every branch is dead (y's `last`-colored neighbors reachable only
    through y) lists every alternating path of the rest; a search that
    ends within n pushes does not pay for it.
    """
    if x == y:
        raise ValueError("endpoints must differ")
    g.check_vertices(x, y)
    adj = (g.masks(BLUE), g.masks(RED))
    need, want = first is RED, last is RED  # color indices into adj
    ends = adj[want][y]  # the vertices that can precede y
    path = [x]
    on_path = 1 << x
    # per path vertex, its untried neighbors in the color its next edge needs;
    # once every vertex of `ends` is on the path, only y itself
    untried = [adj[need][x] & (~on_path if ends & ~on_path else 1 << y)]
    walk_check = False  # whether the next candidate tried gets the walk test
    pushes = 0
    while untried:
        cand = untried[-1]
        if not cand:
            untried.pop()
            on_path ^= 1 << path.pop()
            need = not need
            walk_check = True
            continue
        low = cand & -cand
        untried[-1] = cand ^ low
        u = low.bit_length() - 1
        if u == y:
            if need == want:
                return AltPath(tuple(path) + (y,), alternating(first, len(path)))
            continue
        if walk_check:
            walk_check = False
            if not _walk_reaches(adj, u, not need, on_path | low | 1 << y, ends, want):
                continue
        path.append(u)
        on_path |= low
        need = not need
        untried.append(adj[need][u] & (~on_path if ends & ~on_path else 1 << y))
        pushes += 1
        if pushes == g.n and not _walk_reaches(adj, x, first is RED, 1 << x | 1 << y, ends, want):
            return None
    return None


def _walk_reaches(
    adj: tuple[list[int], list[int]], u: int, c: bool, avoid: int, ends: int, want: bool
) -> bool:
    """Whether an alternating walk leaves u by an edge of color index c,
    enters no vertex of `avoid` and reaches a vertex of `ends` with its next
    edge of color index `want`, in O(n) mask operations.

    The walk's states are (vertex, color of its next edge), and every state
    at distance d from (u, c) has color c ^ d % 2, so a breadth-first search
    keeps one frontier mask and one seen mask per color."""
    front, seen = 1 << u, [0, 0]
    seen[c] = front
    while front:
        if c == want and front & ends:
            return True
        step = 0
        while front:
            low = front & -front
            front ^= low
            step |= adj[c][low.bit_length() - 1]
        c = not c
        front = step & ~(avoid | seen[c])
        seen[c] |= front
    return False


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
    from the module global `exists_alternating_path`: from its search, which
    tries only y once every vertex that can precede y is on the path, skips
    the first candidate after each backtrack when its alternating walks
    cannot reach y, and stops at its n-th push when no walk from x reaches y.
    Each pair keeps its answers in a four-slot list keyed 2*f + l, f and l
    the indices `color is RED`; only the witness returned gets its table
    keyed by `Color` pairs.
    The table keeps each pair once, under its smaller endpoint a, in 4n
    ints, row a of at most n - a - 1 bits: at most 2n*n bits, n*n/4 bytes,
    as the graph's masks take.
    """
    # known[f][l][a], indices `color is RED`, has bit b - a - 1 set when an
    # alternating a-b path, a < b, with first color f and last color l is known
    known = [[[0] * g.n for _ in range(2)] for _ in range(2)]

    def found(ex: list[bool | None], x: int, y: int, k: int) -> bool:
        # whether the pair has a path of key k = 2*f + l, answered once into ex
        if ex[k] is None:
            ex[k] = bool(known[k >> 1][k & 1][x] >> (y - x - 1) & 1)
            if not ex[k]:
                path = exists_alternating_path(g, x, y, _COLORS[k >> 1], _COLORS[k & 1])
                if path is not None:
                    _record_subpaths(known, path)
                    ex[k] = True
        return ex[k]

    for x in range(g.n):
        for y in range(x + 1, g.n):
            ex: list[bool | None] = [None] * 4
            # BB (key 0) and RR (3), else BR (1) and RB (2)
            if (found(ex, x, y, 0) and found(ex, x, y, 3)) or (
                found(ex, x, y, 1) and found(ex, x, y, 2)
            ):
                continue
            table = {
                (f, l): found(ex, x, y, 2 * (f is RED) + (l is RED)) for f in Color for l in Color
            }
            return ColorConnectivityWitness(x, y, table)
    return None


def _record_subpaths(known: list[list[list[int]]], path: AltPath) -> None:
    """Set the bit of every subpath of `path` in color_connectivity_witness's
    table, in O(len(path)) mask operations."""
    vs = path.vertices
    k0 = int(path.colors[0] is RED)  # edge k, [vs[k], vs[k+1]], has index k0 ^ k % 2
    # the rows by (first, last) index, s for k0 and o for 1 - k0; an odd
    # position writes the rows an even one does, in reverse order
    ss, so = known[k0][k0], known[k0][1 - k0]
    os_, oo = known[1 - k0][k0], known[1 - k0][1 - k0]
    # the vertices at even and at odd positions from position i on, and before it
    even_after = odd_after = even_before = odd_before = 0
    for v in vs[0::2]:
        even_after |= 1 << v
    for v in vs[1::2]:
        odd_after |= 1 << v
    for i, v in enumerate(vs):
        low, shift = 1 << v, v + 1
        # to vs[j], j > i: first edge i, last edge j - 1; back to vs[j], j < i:
        # first edge i - 1, last edge j. v's own bit shifts out
        if i & 1:
            oo[v] |= even_after >> shift
            os_[v] |= odd_after >> shift
            ss[v] |= even_before >> shift
            so[v] |= odd_before >> shift
            odd_after ^= low
            odd_before |= low
        else:
            so[v] |= even_after >> shift
            ss[v] |= odd_after >> shift
            os_[v] |= even_before >> shift
            oo[v] |= odd_before >> shift
            even_after ^= low
            even_before |= low


def is_color_connected(g: ColoredMultigraph) -> bool:
    return color_connectivity_witness(g) is None
