"""Constructive cycle merging and the Hamiltonian cycle driver.

Merging two alternating cycles proceeds through, in order: a good pair of
edges, the explicit mixed-color-star cycle, an explicit chord-based cycle,
and finally a color-domination verdict. Each constructive step builds the
candidate vertex sequence and validates it against the graph; structural
failures (short cycles, index collisions) fall back to exhaustive search on
the union, so every outcome is checked, never assumed.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import lcm

from .cycles import (
    AltCycle,
    CycleFactor,
    cycle_from_vertex_sequence,
    validate_cycle,
)
from .graph import BLUE, RED, Color, ColoredMultigraph
from .oracles import oracle_merge
from .predicates import TwoPath, two_m_violations


class MergeError(Exception):
    pass


class NotOnCycleError(MergeError):
    pass


class InvalidPairError(MergeError):
    pass


class InvalidTriangleError(MergeError):
    pass


class StructureViolation(MergeError):
    """The domination digraph breaks a structural guarantee; signals a
    non-closed input or a missed merge. Carries the offending nodes."""

    def __init__(self, message: str, offenders: tuple = ()):
        super().__init__(message)
        self.offenders = offenders


@dataclass(frozen=True)
class GoodPair:
    """Cycle-edge indices i (in c1) and j (in c2) spanning a monochromatic
    4-cycle; orientation 1 pairs x_i with y_j, orientation 2 pairs x_i with
    y_{j+1}."""

    i: int
    j: int
    orientation: int
    color: Color


@dataclass(frozen=True)
class Merged:
    cycle: AltCycle


@dataclass(frozen=True)
class Dominates:
    source: int  # 1 if c1 dominates c2, 2 if c2 dominates c1
    color: Color


@dataclass(frozen=True)
class NotAdjacent:
    pass


@dataclass(frozen=True)
class Inapplicable:
    witness: TwoPath | None


MergeOutcome = Merged | Dominates | NotAdjacent | Inapplicable


@dataclass
class DominationDigraph:
    size: int
    arcs: dict[tuple[int, int], Color]

    def out_degree(self, i: int) -> int:
        return sum(1 for (a, _b) in self.arcs if a == i)

    def find_directed_triangle(self) -> tuple[int, int, int] | None:
        for (i, j) in sorted(self.arcs):
            for k in range(self.size):
                if k in (i, j):
                    continue
                if (j, k) in self.arcs and (k, i) in self.arcs:
                    return (i, j, k)
        return None

    def is_acyclic(self) -> bool:
        return self.find_directed_triangle() is None

    def source(self) -> tuple[int, Color]:
        """Node of out-degree size-1 with its (uniform) out-arc color."""
        for i in range(self.size):
            outs = [(j, c) for (a, j), c in self.arcs.items() if a == i]
            if len(outs) == self.size - 1:
                colors = {c for _j, c in outs}
                if len(colors) != 1:
                    raise StructureViolation("source out-arcs not monochromatic", (i,))
                return i, colors.pop()
        raise StructureViolation("no source of full out-degree", ())


@dataclass(frozen=True)
class NotColorConnectedCert:
    """Replayable certificate: no alternating path from `vertex` to `target`
    starts with `start_color`."""

    cycle: AltCycle
    vertex: int
    target: int
    start_color: Color
    domination_color: Color | None


@dataclass(frozen=True)
class HamiltonianCycle:
    cycle: AltCycle


@dataclass(frozen=True)
class NoFactor:
    pass


@dataclass(frozen=True)
class NotColorConnected:
    certificate: NotColorConnectedCert


@dataclass(frozen=True)
class NotTwoMClosed:
    witness: TwoPath


SolveResult = HamiltonianCycle | NoFactor | NotColorConnected | NotTwoMClosed


# ---------------------------------------------------------------------------
# labelling helpers


def _orient(cycle: AltCycle, v: int, color: Color) -> AltCycle:
    """Rotation/reversal with v first and the first edge colored `color`.

    Always achievable: each cycle vertex has one incident cycle edge of each
    color, and reversal keeps the first vertex while flipping the first
    edge's color.
    """
    if v not in cycle.vertex_set():
        raise NotOnCycleError(f"vertex {v} not on cycle")
    rotated = cycle.rotate(cycle.vertices.index(v))
    if rotated.colors[0] is color:
        return rotated
    return rotated.reverse()


def appropriately_label(
    g: ColoredMultigraph,
    c1: AltCycle,
    c2: AltCycle,
    edge: tuple[int, int],
    color: Color | None = None,
) -> tuple[AltCycle, AltCycle]:
    """Relabel so the cross edge (x, y) starts both cycles and both first
    cycle edges carry the cross edge's color."""
    x, y = edge
    if x not in c1.vertex_set():
        raise NotOnCycleError(f"vertex {x} not on first cycle")
    if y not in c2.vertex_set():
        raise NotOnCycleError(f"vertex {y} not on second cycle")
    if color is None:
        present = sorted(g.edge_colors(x, y), key=lambda c: c.value)
        if not present:
            raise MergeError(f"no edge between {x} and {y}")
        color = present[0]
    elif not g.has_edge_color(x, y, color):
        raise MergeError(f"no {color.value} edge between {x} and {y}")
    return _orient(c1, x, color), _orient(c2, y, color)


# ---------------------------------------------------------------------------
# good pairs


def find_good_pair(g: ColoredMultigraph, c1: AltCycle, c2: AltCycle) -> GoodPair | None:
    """Lexicographically first good pair over all edge pairs and both
    orientations."""
    m1, m2 = len(c1), len(c2)
    x, y = c1.vertices, c2.vertices
    for i in range(m1):
        color = c1.colors[i]
        for j in range(m2):
            if c2.colors[j] is not color:
                continue
            for orientation in (1, 2):
                a = y[j] if orientation == 1 else y[(j + 1) % m2]
                b = y[(j + 1) % m2] if orientation == 1 else y[j]
                if g.has_edge_color(x[i], a, color) and g.has_edge_color(
                    x[(i + 1) % m1], b, color
                ):
                    return GoodPair(i, j, orientation, color)
    return None


def merge_good_pair(
    g: ColoredMultigraph, c1: AltCycle, c2: AltCycle, pair: GoodPair
) -> AltCycle:
    """The explicit merged cycle: enter c2 at one end of the monochromatic
    4-cycle, traverse it fully, re-enter c1 at the other end."""
    m1, m2 = len(c1), len(c2)
    x, y = c1.vertices, c2.vertices
    i, j = pair.i, pair.j
    if pair.orientation == 1:
        c2_part = [y[(j - k) % m2] for k in range(m2)]
    else:
        c2_part = [y[(j + 1 + k) % m2] for k in range(m2)]
    seq = [x[i]] + c2_part + [x[(i + 1 + k) % m1] for k in range(m1 - 1)]
    merged = cycle_from_vertex_sequence(g, seq)
    if merged is None:
        raise InvalidPairError(f"good pair {pair} does not yield an alternating cycle")
    return merged


# ---------------------------------------------------------------------------
# parallel-edge propagation


def check_parallel_edges(
    g: ColoredMultigraph, c1: AltCycle, c2: AltCycle
) -> tuple[list[tuple[int, int, Color]] | None, TwoPath | None]:
    """Verify the cross edges [x_{1+k}, y_{1+k}] with alternating colors,
    assuming appropriate labelling at (x_1, y_1) and no good pair.

    Returns (edges, None) on success. On a missing predicted edge, returns
    (None, witness) where the witness is a genuine closure violation when one
    is exposed at that step, else (None, None) — the propagation may also
    legitimately stop when a merged cycle exists instead.
    """
    m1, m2 = len(c1), len(c2)
    x, y = c1.vertices, c2.vertices
    base = c1.colors[0]
    edges: list[tuple[int, int, Color]] = []
    for k in range(lcm(m1, m2)):
        ck = base if k % 2 == 0 else base.other
        u, v = x[k % m1], y[k % m2]
        if not g.has_edge_color(u, v, ck):
            witness = _parallel_witness(g, c1, c2, k - 1) if k > 0 else None
            return None, witness
        edges.append((u, v, ck))
    return edges, None


def _parallel_witness(
    g: ColoredMultigraph, c1: AltCycle, c2: AltCycle, k: int
) -> TwoPath | None:
    """Closure violation exposed by the first missing parallel edge at step k
    (the edge [x_{k+1}, y_{k+1}] is absent while [x_k, y_k] is present)."""
    from .predicates import _two_path

    m1, m2 = len(c1), len(c2)
    x, y = c1.vertices, c2.vertices
    base = c1.colors[0]
    ck = base if k % 2 == 0 else base.other
    u, v = x[k % m1], y[k % m2]
    un, vn = x[(k + 1) % m1], y[(k + 1) % m2]
    # (x_{k+1}, x_k, y_k) is monochromatic ck
    if not g.has_edge_any(un, v):
        return _two_path(un, u, v, ck, ck)
    # (x_k, y_k, y_{k+1}) is monochromatic ck
    if not g.has_edge_any(u, vn):
        return _two_path(u, v, vn, ck, ck)
    if g.has_edge_any(un, vn):
        # the pair carries only the wrong color; no closure violation here
        return None
    if g.has_edge_color(un, v, ck):
        # (y_{k+1}, y_k, x_{k+1}) is monochromatic ck
        return _two_path(vn, v, un, ck, ck)
    if g.has_edge_color(u, vn, ck):
        # (x_{k+1}, x_k, y_{k+1}) is monochromatic ck
        return _two_path(un, u, vn, ck, ck)
    return None


# ---------------------------------------------------------------------------
# color domination


def color_dominates(g: ColoredMultigraph, c1: AltCycle, c2: AltCycle) -> Color | None:
    """Blue/Red when c1 color-dominates c2 per the six-condition definition
    (read with the cycles as labelled), else None."""
    for color in (BLUE, RED):
        if _dominates_with(g, c1, c2, color):
            return color
    return None


def _dominates_with(
    g: ColoredMultigraph, c1: AltCycle, c2: AltCycle, color: Color
) -> bool:
    i_set, p_set = sorted(c1.i_set), sorted(c1.p_set)
    c2_verts = c2.vertices
    # complete cross adjacency
    for u in c1.vertices:
        for v in c2_verts:
            if not g.has_edge_any(u, v):
                return False
    # internal classes complete and monochromatic
    if not _class_monochromatic(g, i_set, color):
        return False
    if not _class_monochromatic(g, p_set, color.other):
        return False
    # cross classes monochromatic
    for u in i_set:
        for v in c2_verts:
            if not g.has_edge_color(u, v, color) or g.has_edge_color(u, v, color.other):
                return False
    for u in p_set:
        for v in c2_verts:
            if not g.has_edge_color(u, v, color.other) or g.has_edge_color(u, v, color):
                return False
    return True


def _class_monochromatic(
    g: ColoredMultigraph, vertices: list[int], color: Color
) -> bool:
    for a in range(len(vertices)):
        for b in range(a + 1, len(vertices)):
            u, v = vertices[a], vertices[b]
            if not g.has_edge_color(u, v, color) or g.has_edge_color(u, v, color.other):
                return False
    return True


# ---------------------------------------------------------------------------
# pairwise merge


def merge_pair(
    g: ColoredMultigraph,
    c1: AltCycle,
    c2: AltCycle,
    trace: list[str] | None = None,
) -> MergeOutcome:
    """Merge two disjoint alternating cycles or report why not.

    The outcome variant is independent of the input labelling: the analysis
    re-anchors at the lexicographically smallest cross edge.
    """
    cross = sorted(
        (u, v)
        for u in c1.vertices
        for v in c2.vertices
        if g.has_edge_any(u, v)
    )
    if not cross:
        return NotAdjacent()

    pair = find_good_pair(g, c1, c2)
    if pair is not None:
        merged = merge_good_pair(g, c1, c2, pair)
        _note(trace, "merge good-pair")
        return Merged(merged)

    anchor = cross[0]
    a, b = appropriately_label(g, c1, c2, anchor)
    base = a.colors[0]

    # Cross completeness: with no good pair, a 2-M-closed graph has every
    # cross pair adjacent; a gap means either a closure violation or an
    # unstructured merge.
    if len(cross) != len(c1) * len(c2):
        return _fallback(g, c1, c2, trace, witness=None)

    par, witness = check_parallel_edges(g, a, b)
    if par is None:
        return _fallback(g, c1, c2, trace, witness=witness)

    x1 = a.vertices[0]
    i_colors = [g.edge_colors(x1, b.vertices[j]) for j in range(0, len(b), 2)]
    p_colors = [g.edge_colors(x1, b.vertices[j]) for j in range(1, len(b), 2)]

    i_mixed = any(base in s for s in i_colors) and any(base.other in s for s in i_colors)
    p_mixed = any(base in s for s in p_colors) and any(base.other in s for s in p_colors)

    if i_mixed:
        merged = _merge_mixed_star(g, a, b, base)
        if merged is not None:
            _note(trace, "merge mixed-star")
            return Merged(merged)
        return _fallback(g, c1, c2, trace, witness=None)

    if p_mixed:
        # this configuration always yields a good pair via parallel
        # alternation; reaching it with none found means a degenerate cycle
        return _fallback(g, c1, c2, trace, witness=None)

    # monochromatic classes at x1; normalize so all x1 -> c2 edges share one
    # color, interchanging the cycles when the classes differ
    swapped = False
    if any(base.other in s for s in p_colors):
        y1 = b.vertices[0]
        star = [g.edge_colors(y1, u) for u in a.vertices]
        if not all(s == {base} for s in star):
            return _fallback(g, c1, c2, trace, witness=None)
        a, b = b, a
        swapped = True

    star = [g.edge_colors(a.vertices[0], v) for v in b.vertices]
    if not all(s == {base} for s in star):
        return _fallback(g, c1, c2, trace, witness=None)

    # parallel alternation spreads the star: I-class cross edges carry `base`,
    # P-class cross edges the other color
    for u in a.i_set:
        for v in b.vertices:
            if g.edge_colors(u, v) != {base}:
                return _fallback(g, c1, c2, trace, witness=None)
    for u in a.p_set:
        for v in b.vertices:
            if g.edge_colors(u, v) != {base.other}:
                return _fallback(g, c1, c2, trace, witness=None)

    # closure forces both internal classes of the dominating cycle complete
    for cls in (sorted(a.i_set), sorted(a.p_set)):
        for s in range(len(cls)):
            for t in range(s + 1, len(cls)):
                if not g.has_edge_any(cls[s], cls[t]):
                    w = two_m_violations(g)
                    return Inapplicable(w[0]) if w else _fallback(
                        g, c1, c2, trace, witness=None
                    )

    merged = _merge_chord(g, a, b, base)
    if merged is not None:
        _note(trace, "merge chord")
        return Merged(merged)

    # monochromatic star with no usable chord: the configuration matches the
    # color-domination pattern, so a dominates b
    if swapped:
        d = color_dominates(g, c2, c1)
        if d is not None:
            _note(trace, f"dominate 2 1 {d.value}")
            return Dominates(2, d)
    else:
        d = color_dominates(g, c1, c2)
        if d is not None:
            _note(trace, f"dominate 1 2 {d.value}")
            return Dominates(1, d)
    return _fallback(g, c1, c2, trace, witness=None)


def _merge_mixed_star(
    g: ColoredMultigraph, a: AltCycle, b: AltCycle, base: Color
) -> AltCycle | None:
    """Mixed colors from x_1 to the odd-position class of c2: rotate c2 so
    [x_1, y_1] carries the base color and [x_1, y_3] the other, then read off
    the explicit merged cycle."""
    m1, m2 = len(a), len(b)
    x1 = a.vertices[0]
    shift = None
    for j in range(0, m2, 2):
        if base in g.edge_colors(x1, b.vertices[j]) and base.other in g.edge_colors(
            x1, b.vertices[(j + 2) % m2]
        ):
            shift = j
            break
    if shift is None:
        return None
    b = b.rotate(shift)
    xs, ys = a.vertices, b.vertices
    n, m = m1, m2
    seq: list[int] = []
    if n <= m:
        for t in range(n // 2):
            seq += [ys[2 * t], ys[2 * t + 1], xs[2 * t + 1], xs[2 * t]]
        seq += list(ys[n:])
    else:
        for t in range((m - 2) // 2):
            seq += [ys[2 * t], ys[2 * t + 1], xs[2 * t + 1], xs[2 * t]]
        seq += [ys[m - 2], ys[m - 1]]
        seq += [xs[i] for i in range(n - 1, m - 3, -1)]
    return cycle_from_vertex_sequence(g, seq)


def _merge_chord(
    g: ColoredMultigraph, a: AltCycle, b: AltCycle, base: Color
) -> AltCycle | None:
    """An off-pattern chord inside the dominating cycle's odd class (other
    color) or even class (base color) threads both cycles into one."""
    merged = _chord_merge(g, a, b, base)
    if merged is not None:
        return merged
    # even-class chord: rotating both cycles by one swaps the classes and the
    # roles of the colors, reducing to the same construction
    return _chord_merge(g, a.rotate(1), b.rotate(1), base.other)


def _chord_merge(
    g: ColoredMultigraph, a: AltCycle, b: AltCycle, base: Color
) -> AltCycle | None:
    n, m = len(a), len(b)
    xs, ys = a.vertices, b.vertices
    for p in range(0, n, 2):
        for q in range(p + 2, n, 2):
            if not g.has_edge_color(xs[p], xs[q], base.other):
                continue
            seq = [ys[0]]
            i = (p - 1) % n
            while True:
                seq.append(xs[i])
                if i == q:
                    break
                i = (i - 1) % n
            seq += [xs[i] for i in range(p, q)]
            seq += [ys[m - 1 - k] for k in range(m - 1)]
            merged = cycle_from_vertex_sequence(g, seq)
            if merged is not None:
                return merged
    return None


def _fallback(
    g: ColoredMultigraph,
    c1: AltCycle,
    c2: AltCycle,
    trace: list[str] | None,
    witness: TwoPath | None,
) -> MergeOutcome:
    """Exhaustive recovery when a constructive step cannot instantiate its
    pattern: closure violations surface as Inapplicable, else search the
    union outright, else recheck domination both ways."""
    if witness is None:
        w = two_m_violations(g)
        witness = w[0] if w else None
    if witness is not None:
        return Inapplicable(witness)
    merged = oracle_merge(g, c1, c2)
    if merged is not None:
        _note(trace, "merge oracle")
        return Merged(merged)
    d = color_dominates(g, c1, c2)
    if d is not None:
        _note(trace, f"dominate 1 2 {d.value}")
        return Dominates(1, d)
    d = color_dominates(g, c2, c1)
    if d is not None:
        _note(trace, f"dominate 2 1 {d.value}")
        return Dominates(2, d)
    return Inapplicable(None)


def _note(trace: list[str] | None, line: str) -> None:
    if trace is not None:
        trace.append(line)


# ---------------------------------------------------------------------------
# domination digraph and triangle merges


def build_domination_digraph(
    g: ColoredMultigraph, cycles: list[AltCycle]
) -> DominationDigraph:
    """Digraph on factor cycles with a colored arc per domination.

    Verifies the structural guarantees available before triangle elimination:
    an arc per adjacent pair, no symmetric pair, monochromatic out-stars, and
    the arc color matching the first-vertex edge. Acyclicity is established
    by the driver, which merges any directed triangle first.
    """
    arcs: dict[tuple[int, int], Color] = {}
    l = len(cycles)
    for i in range(l):
        for j in range(i + 1, l):
            if not _adjacent(g, cycles[i], cycles[j]):
                continue
            dij = color_dominates(g, cycles[i], cycles[j])
            dji = color_dominates(g, cycles[j], cycles[i])
            if dij is not None and dji is not None:
                raise StructureViolation("symmetric domination pair", (i, j))
            if dij is None and dji is None:
                raise StructureViolation("adjacent cycles with no domination", (i, j))
            src, dst, color = (i, j, dij) if dij is not None else (j, i, dji)
            first_edge = g.edge_colors(cycles[src].vertices[0], cycles[dst].vertices[0])
            if first_edge != {color}:
                raise StructureViolation("arc color mismatch", (src, dst))
            arcs[(src, dst)] = color
    for i in range(l):
        colors = {c for (s, _t), c in arcs.items() if s == i}
        if len(colors) > 1:
            raise StructureViolation("out-arcs of one cycle differ in color", (i,))
    # tournament on connected adjacency components
    comps = _components(arcs, l)
    for comp in comps:
        members = sorted(comp)
        for s in range(len(members)):
            for t in range(s + 1, len(members)):
                i, j = members[s], members[t]
                if (i, j) not in arcs and (j, i) not in arcs:
                    raise StructureViolation("component pair without arc", (i, j))
    return DominationDigraph(l, arcs)


def _adjacent(g: ColoredMultigraph, c1: AltCycle, c2: AltCycle) -> bool:
    return any(
        g.has_edge_any(u, v) for u in c1.vertices for v in c2.vertices
    )


def _components(arcs: dict[tuple[int, int], Color], l: int) -> list[set[int]]:
    parent = list(range(l))

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for (i, j) in arcs:
        parent[find(i)] = find(j)
    comps: dict[int, set[int]] = {}
    for v in range(l):
        comps.setdefault(find(v), set()).add(v)
    return list(comps.values())


def merge_domination_triangle(
    g: ColoredMultigraph,
    c1: AltCycle,
    c2: AltCycle,
    c3: AltCycle,
    colors: tuple[Color, Color, Color],
) -> AltCycle:
    """Merge a directed 3-cycle of dominations into one alternating cycle.

    A monochromatic triangle concatenates all three cycles forward; a mixed
    triangle (rotated so the odd-colored arc comes last) traverses the third
    cycle in reverse.
    """
    cycles = [c1, c2, c3]
    for t in range(3):
        if color_dominates(g, cycles[t], cycles[(t + 1) % 3]) is not colors[t]:
            raise InvalidTriangleError(f"domination {t} -> {(t + 1) % 3} rechecked false")

    if colors[0] is colors[1] is colors[2]:
        a = colors[0]
        o1, o2, o3 = (_orient_first(c, a) for c in cycles)
        seq = list(o1.vertices) + list(o2.vertices) + list(o3.vertices)
        merged = cycle_from_vertex_sequence(g, seq)
        if merged is not None:
            return merged
        raise InvalidTriangleError("monochromatic triangle cycle did not validate")

    # rotate roles so the first two dominations share a color
    for shift in range(3):
        rc = [colors[(shift + t) % 3] for t in range(3)]
        if rc[0] is rc[1] and rc[2] is not rc[0]:
            ordered = [cycles[(shift + t) % 3] for t in range(3)]
            a = rc[0]
            o1 = _orient_first(ordered[0], a)
            o2 = _orient_first(ordered[1], a)
            for third_first in (a, a.other):
                o3 = _orient_first(ordered[2], third_first)
                seq = (
                    list(o1.vertices)
                    + list(o2.vertices)
                    + list(o3.vertices[::-1])
                )
                merged = cycle_from_vertex_sequence(g, seq)
                if merged is not None:
                    return merged
            break
    raise InvalidTriangleError("mixed triangle cycle did not validate")


def _orient_first(cycle: AltCycle, color: Color) -> AltCycle:
    """Reversal (never rotation: the odd/even classes must stay put) so the
    first edge carries `color`."""
    return cycle if cycle.colors[0] is color else cycle.reverse()


# ---------------------------------------------------------------------------
# solver


def solve_hamiltonian(
    g: ColoredMultigraph, trace: list[str] | None = None
) -> SolveResult:
    """Alternating Hamiltonian cycle for 2-M-closed graphs, or a refutation.

    Pipeline: closure check, cycle factor, then merge until one cycle
    remains; when no pairwise merge applies and dominations are in place,
    either a domination triangle merges three cycles or the acyclic
    tournament's source certifies non-color-connectivity. A final cycle
    that does not validate or span g raises StructureViolation.
    """
    violations = two_m_violations(g)
    if violations:
        return NotTwoMClosed(violations[0])
    from .factor import find_alternating_cycle_factor

    factor = find_alternating_cycle_factor(g)
    if factor is None or g.n == 0:
        return NoFactor()
    cycles = list(factor)
    while len(cycles) > 1:
        cert = _disconnected_certificate(g, cycles)
        if cert is not None:
            return NotColorConnected(cert)
        merged_any = False
        for i in range(len(cycles)):
            for j in range(i + 1, len(cycles)):
                outcome = merge_pair(g, cycles[i], cycles[j], trace)
                if isinstance(outcome, Merged):
                    cycles = [
                        c for k, c in enumerate(cycles) if k not in (i, j)
                    ] + [outcome.cycle]
                    merged_any = True
                    break
            if merged_any:
                break
        if merged_any:
            continue
        digraph = build_domination_digraph(g, cycles)
        triangle = digraph.find_directed_triangle()
        if triangle is not None:
            i, j, k = triangle
            colors = (
                digraph.arcs[(i, j)],
                digraph.arcs[(j, k)],
                digraph.arcs[(k, i)],
            )
            merged = merge_domination_triangle(
                g, cycles[i], cycles[j], cycles[k], colors
            )
            _note(trace, f"merge triangle {i} {j} {k}")
            cycles = [c for t, c in enumerate(cycles) if t not in (i, j, k)] + [merged]
            continue
        src, dom_color = digraph.source()
        source_cycle = cycles[src]
        sample = min(source_cycle.i_set)
        outside = min(set(range(g.n)) - source_cycle.vertex_set())
        return NotColorConnected(
            NotColorConnectedCert(
                cycle=source_cycle,
                vertex=sample,
                target=outside,
                start_color=dom_color.other,
                domination_color=dom_color,
            )
        )
    cycle = cycles[0]
    if not validate_cycle(g, cycle) or sorted(cycle.vertices) != list(range(g.n)):
        raise StructureViolation("merged cycle is not a Hamiltonian cycle of g", (cycle,))
    return HamiltonianCycle(cycle)


def _disconnected_certificate(
    g: ColoredMultigraph, cycles: list[AltCycle]
) -> NotColorConnectedCert | None:
    """A disconnected cycle-adjacency graph is never color-connected: no
    alternating path leaves a component at all."""
    l = len(cycles)
    arcs = {}
    for i in range(l):
        for j in range(i + 1, l):
            if _adjacent(g, cycles[i], cycles[j]):
                arcs[(i, j)] = BLUE
    comps = _components(arcs, l)
    if len(comps) <= 1:
        return None
    first = min(comps, key=min)
    c0 = cycles[min(first)]
    other_comp = next(c for c in comps if c is not first)
    target_cycle = cycles[min(other_comp)]
    return NotColorConnectedCert(
        cycle=c0,
        vertex=min(c0.i_set),
        target=min(target_cycle.vertex_set()),
        start_color=BLUE,
        domination_color=None,
    )
