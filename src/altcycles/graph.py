"""Loopless 2-edge-colored multigraphs over dense integer vertices.

A pair of vertices may carry at most one blue and one red edge; parallel
edges of the same color are collapsed (alternation and all predicates
depend only on per-color presence). Adjacency is stored as one neighbor
bit mask per vertex and color: bit v of u's mask is set when {u, v} has an
edge of that color.
"""
from __future__ import annotations

from collections.abc import Iterator, Sequence
from enum import Enum


# Largest vertex count `parse_text` accepts. A vertex's mask is as wide as
# its highest neighbor index, so the masks take up to about n*n/4 bytes:
# about 26 MB at this size (every vertex joined to the last one in both
# colors), from about 300 KB of text.
MAX_VERTICES = 10_000


class GraphError(Exception):
    """Base class for graph construction/parsing errors."""


class LoopError(GraphError):
    """Raised when an edge {v, v} is requested."""


class OutOfRangeError(GraphError):
    """Raised when a vertex index is outside 0..n-1."""


class ParseError(GraphError):
    """Malformed text input; carries the 1-based line number."""

    def __init__(self, message: str, line_no: int):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class Color(Enum):
    BLUE = "B"
    RED = "R"

    @property
    def other(self) -> Color:
        return Color.RED if self is Color.BLUE else Color.BLUE

    @classmethod
    def from_letter(cls, letter: str) -> Color:
        color = _BY_LETTER.get(letter)
        if color is None:
            raise ValueError(f"unknown color letter {letter!r}")
        return color

    def __repr__(self) -> str:  # keeps test output compact
        return self.value


BLUE = Color.BLUE
RED = Color.RED
# letter -> color; a dict lookup is several times cheaper than Color(letter)
_BY_LETTER = {c.value: c for c in Color}


def alternating(first: Color, m: int) -> tuple[Color, ...]:
    """The colors of m consecutive edges of an alternating path or cycle
    whose first edge has color `first`: with two colors, alternation forces
    every other one."""
    return (first, first.other) * (m // 2) + (first,) * (m % 2)


def bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of `mask`, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class ColoredMultigraph:
    """Undirected multigraph with per-pair, per-color edge presence, held
    as two lists of neighbor bit masks, one per color.

    Treated as immutable once construction is finished; `add_edge` is only
    used while building.
    """

    def __init__(self, n: int):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        self.n = n
        # neighbor masks indexed by `color is RED`; symmetric by construction
        self._adj: list[list[int]] = [[0] * n, [0] * n]

    def check_vertices(self, *vertices: int) -> None:
        """Raise OutOfRangeError naming the first of `vertices` outside 0..n-1."""
        for v in vertices:
            if not 0 <= v < self.n:
                raise OutOfRangeError(f"vertex {v} outside 0..{self.n - 1}")

    def add_edge(self, u: int, v: int, color: Color) -> ColoredMultigraph:
        """Insert the colored edge {u, v}; idempotent. Returns self."""
        if u != v and 0 <= u < self.n and 0 <= v < self.n:
            masks = self._adj[color is RED]
            masks[u] |= 1 << v
            masks[v] |= 1 << u
            return self
        self.check_vertices(u, v)
        raise LoopError(f"loop at vertex {u}")

    def masks(self, color: Color) -> list[int]:
        """The neighbor bit masks of `color`, indexed by vertex: bit v of
        `masks(color)[u]` is set iff {u, v} has an edge of that color.
        This is the graph's own storage, for reading only."""
        return self._adj[color is RED]

    def has_edge_color(self, u: int, v: int, color: Color) -> bool:
        self.check_vertices(u, v)
        return self._adj[color is RED][u] >> v & 1 == 1

    def has_walk(self, vertices: Sequence[int], colors: Sequence[Color]) -> bool:
        """Whether every vertex is in 0..n-1, `colors` has one color per
        consecutive pair of `vertices` and each pair has an edge of its
        color; never raises. The replay of any cycle, path or 2-path."""
        if len(colors) != len(vertices) - 1 or min(vertices) < 0 or max(vertices) >= self.n:
            return False
        return all(
            self._adj[c is RED][u] >> v & 1 for u, v, c in zip(vertices, vertices[1:], colors)
        )

    def edges(self) -> list[tuple[int, int, Color]]:
        """All edges as (u, v, color), u < v, sorted; Blue before Red."""
        out = []
        blue, red = self._adj
        for u in range(self.n):
            b, r = blue[u], red[u]
            for v in bits((b | r) >> (u + 1) << (u + 1)):
                if b >> v & 1:
                    out.append((u, v, BLUE))
                if r >> v & 1:
                    out.append((u, v, RED))
        return out

    def edge_count(self) -> int:
        return sum(m.bit_count() for masks in self._adj for m in masks) // 2

    def copy(self) -> ColoredMultigraph:
        g = ColoredMultigraph(self.n)
        g._adj = [list(masks) for masks in self._adj]
        return g

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ColoredMultigraph):
            return NotImplemented
        return self.n == other.n and self._adj == other._adj

    def __repr__(self) -> str:
        return f"ColoredMultigraph(n={self.n}, edges={self.edge_count()})"


def empty(n: int) -> ColoredMultigraph:
    """Graph with n vertices and no edges."""
    return ColoredMultigraph(n)


def reachable(
    g: ColoredMultigraph, start: int, avoid: int = 0, color: Color | None = None
) -> int:
    """Mask of the vertices reachable from `start` over edges of `color`, or
    of both colors if None, without entering a vertex of the `avoid` mask."""
    # one color is read twice, so both cases share the loop at its old cost
    one, two = (g.masks(BLUE), g.masks(RED)) if color is None else (g.masks(color),) * 2
    seen = frontier = 1 << start
    while frontier:
        reach = 0
        for v in bits(frontier):
            reach |= one[v] | two[v]
        frontier = reach & ~(seen | avoid)
        seen |= frontier
    return seen


def parse_text(text: str) -> ColoredMultigraph:
    """Parse the edge-list format.

    `n <count>` first (at most MAX_VERTICES), then `e <u> <v> <B|R>` lines;
    '#' starts a comment that runs to the end of its line, blank lines are
    ignored. Only `\n`, `\r\n` and `\r` end a line; other Unicode line
    separators are whitespace inside one.
    """
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    if lines[-1] == "":  # the terminator of the last line starts no line
        lines.pop()
    g: ColoredMultigraph | None = None
    for line_no, raw in enumerate(lines, start=1):
        parts = (raw.split("#", 1)[0] if "#" in raw else raw).split()
        if not parts:
            continue
        if parts[0] == "e":
            if g is None:
                raise ParseError("edge before 'n' record", line_no)
            if len(parts) != 4:
                raise ParseError("expected 'e <u> <v> <B|R>'", line_no)
            try:
                u, v = _decimal(parts[1]), _decimal(parts[2])
            except ValueError:
                raise ParseError("bad vertex index", line_no)
            color = _BY_LETTER.get(parts[3])
            if color is None:
                raise ParseError(f"bad color {parts[3]!r}", line_no)
            try:
                g.add_edge(u, v, color)
            except (LoopError, OutOfRangeError) as exc:
                raise ParseError(str(exc), line_no) from exc
        elif parts[0] == "n":
            if g is not None:
                raise ParseError("duplicate 'n' record", line_no)
            if len(parts) != 2:
                raise ParseError("expected 'n <count>'", line_no)
            try:
                count = _decimal(parts[1])
            except ValueError:
                raise ParseError(f"bad vertex count {parts[1]!r}", line_no)
            if count < 0:
                raise ParseError("vertex count must be non-negative", line_no)
            if count > MAX_VERTICES:
                raise ParseError(f"vertex count {count} exceeds {MAX_VERTICES}", line_no)
            g = ColoredMultigraph(count)
        else:
            raise ParseError(f"unknown record {parts[0]!r}", line_no)
    if g is None:
        raise ParseError("missing 'n' record", max(1, len(lines)))
    return g


def _decimal(field: str) -> int:
    """`int`, refusing the other scripts' digits and `_` that it accepts."""
    if not field.isascii() or "_" in field:
        raise ValueError(f"not an ASCII decimal: {field!r}")
    return int(field)


def serialize_text(g: ColoredMultigraph) -> str:
    """Deterministic serialization; inverse of parse_text on canonical graphs."""
    lines = [f"n {g.n}"]
    for u, v, color in g.edges():
        lines.append(f"e {u} {v} {color.value}")
    return "\n".join(lines) + "\n"
