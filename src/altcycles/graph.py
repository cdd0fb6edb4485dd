"""Loopless 2-edge-colored multigraphs over dense integer vertices.

A pair of vertices may carry at most one blue and one red edge; parallel
edges of the same color are collapsed (alternation and all predicates
depend only on per-color presence).
"""
from __future__ import annotations

from enum import Enum


# Largest vertex count `parse_text` accepts. The graph allocates two
# neighbor sets per vertex (about 440 B) before it reads any edge, so an
# empty graph at this size takes about 44 MB.
MAX_VERTICES = 100_000


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
        if letter == "B":
            return cls.BLUE
        if letter == "R":
            return cls.RED
        raise ValueError(f"unknown color letter {letter!r}")

    def __repr__(self) -> str:  # keeps test output compact
        return self.value


BLUE = Color.BLUE
RED = Color.RED


def _key(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


class ColoredMultigraph:
    """Undirected multigraph with per-pair, per-color edge presence.

    Treated as immutable once construction is finished; `add_edge` is only
    used while building.
    """

    def __init__(self, n: int):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        self.n = n
        # one neighbor-set per vertex per color; symmetric by construction
        self._adj: dict[Color, list[set[int]]] = {
            BLUE: [set() for _ in range(n)],
            RED: [set() for _ in range(n)],
        }

    def _check_vertex(self, v: int) -> None:
        if not (0 <= v < self.n):
            raise OutOfRangeError(f"vertex {v} outside 0..{self.n - 1}")

    def add_edge(self, u: int, v: int, color: Color) -> ColoredMultigraph:
        """Insert the colored edge {u, v}; idempotent. Returns self."""
        self._check_vertex(u)
        self._check_vertex(v)
        if u == v:
            raise LoopError(f"loop at vertex {u}")
        self._adj[color][u].add(v)
        self._adj[color][v].add(u)
        return self

    def has_edge_color(self, u: int, v: int, color: Color) -> bool:
        self._check_vertex(u)
        self._check_vertex(v)
        return v in self._adj[color][u]

    def has_edge_any(self, u: int, v: int) -> bool:
        self._check_vertex(u)
        self._check_vertex(v)
        return v in self._adj[BLUE][u] or v in self._adj[RED][u]

    def edge_colors(self, u: int, v: int) -> set[Color]:
        return {c for c in Color if self.has_edge_color(u, v, c)}

    def neighbors_by_color(self, v: int, color: Color) -> set[int]:
        self._check_vertex(v)
        return set(self._adj[color][v])

    def neighbors_any(self, v: int) -> set[int]:
        self._check_vertex(v)
        return self._adj[BLUE][v] | self._adj[RED][v]

    def edges(self) -> list[tuple[int, int, Color]]:
        """All edges as (u, v, color), u < v, sorted; Blue before Red."""
        out = []
        for u in range(self.n):
            for color in (BLUE, RED):
                for v in self._adj[color][u]:
                    if u < v:
                        out.append((u, v, color))
        out.sort(key=lambda e: (e[0], e[1], e[2] is RED))
        return out

    def edge_count(self) -> int:
        return len(self.edges())

    def copy(self) -> ColoredMultigraph:
        g = ColoredMultigraph(self.n)
        for color in (BLUE, RED):
            g._adj[color] = [set(s) for s in self._adj[color]]
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


def induced_subgraph(
    g: ColoredMultigraph, vertices: list[int]
) -> tuple[ColoredMultigraph, list[int]]:
    """Subgraph on `vertices`, relabelled 0..k-1; returns (subgraph, old labels)."""
    order = sorted(vertices)
    index = {v: i for i, v in enumerate(order)}
    sub = ColoredMultigraph(len(order))
    for u in order:
        for color in (BLUE, RED):
            for v in g.neighbors_by_color(u, color):
                if v in index and u < v:
                    sub.add_edge(index[u], index[v], color)
    return sub, order


def parse_text(text: str) -> ColoredMultigraph:
    """Parse the edge-list format.

    `n <count>` first (at most MAX_VERTICES), then `e <u> <v> <B|R>` lines;
    '#' starts a comment, blank lines are ignored.
    """
    g: ColoredMultigraph | None = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "n":
            if g is not None:
                raise ParseError("duplicate 'n' record", line_no)
            if len(parts) != 2:
                raise ParseError("expected 'n <count>'", line_no)
            try:
                count = int(parts[1])
            except ValueError:
                raise ParseError(f"bad vertex count {parts[1]!r}", line_no)
            if count < 0:
                raise ParseError("vertex count must be non-negative", line_no)
            if count > MAX_VERTICES:
                raise ParseError(f"vertex count {count} exceeds {MAX_VERTICES}", line_no)
            g = ColoredMultigraph(count)
        elif parts[0] == "e":
            if g is None:
                raise ParseError("edge before 'n' record", line_no)
            if len(parts) != 4:
                raise ParseError("expected 'e <u> <v> <B|R>'", line_no)
            try:
                u, v = int(parts[1]), int(parts[2])
            except ValueError:
                raise ParseError("bad vertex index", line_no)
            try:
                color = Color.from_letter(parts[3])
            except ValueError:
                raise ParseError(f"bad color {parts[3]!r}", line_no)
            try:
                g.add_edge(u, v, color)
            except (LoopError, OutOfRangeError) as exc:
                raise ParseError(str(exc), line_no) from exc
        else:
            raise ParseError(f"unknown record {parts[0]!r}", line_no)
    if g is None:
        raise ParseError("missing 'n' record", max(1, len(text.splitlines())))
    return g


def serialize_text(g: ColoredMultigraph) -> str:
    """Deterministic serialization; inverse of parse_text on canonical graphs."""
    lines = [f"n {g.n}"]
    for u, v, color in g.edges():
        lines.append(f"e {u} {v} {color.value}")
    return "\n".join(lines) + "\n"
