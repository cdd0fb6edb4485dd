"""Seeded input pools, the timed operation and the output checks of each
benchmark workload.

A workload turns a seed into a pool of pre-serialized graphs. One op parses
one pool entry and makes one library call on it. The runner times only the
op, reduces its result to a hashable summary with `summarize`, and after the
timed loop verifies each distinct (entry, summary) pair once with `verify`,
against the verdict `expect` derived for that entry.

Ops call the library through module attributes looked up at call time
(`graph.parse_text`, `merge.solve_hamiltonian`, ...), so the traced run's
hooks see them.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

import altcycles.generate as generate
import altcycles.graph as graph
import altcycles.merge as merge
import altcycles.predicates as predicates
from altcycles import (
    BLUE,
    RED,
    AltCycle,
    Color,
    ColoredMultigraph,
    empty,
    exists_alternating_path,
    find_alternating_cycle_factor,
    gen_complete,
    gen_counterexample,
    gen_random,
    is_color_connected,
    oracle_factor,
    oracle_hamiltonian,
    serialize_text,
    validate_cycle,
)
from altcycles.predicates import TwoPath


@dataclass(frozen=True)
class Entry:
    """One pre-serialized input. `arg` is the extra op argument (the
    closure seed) where the op takes one."""

    text: str
    kind: str
    n: int
    arg: int = 0


class CheckFailed(Exception):
    """An op's output is wrong."""


def _colors(letters: str) -> tuple[Color, ...]:
    return tuple(Color.from_letter(c) for c in letters)


def _letters(colors) -> str:
    return "".join(c.value for c in colors)


def two_m_closed(g: ColoredMultigraph) -> bool:
    """Reference 2-M check, written apart from `predicates.two_m_violations`:
    every monochromatic 2-path has adjacent endpoints."""
    adj = {BLUE: [set() for _ in range(g.n)], RED: [set() for _ in range(g.n)]}
    for u, v, c in g.edges():
        adj[c][u].add(v)
        adj[c][v].add(u)
    either = [adj[BLUE][v] | adj[RED][v] for v in range(g.n)]
    for mid in range(g.n):
        for c in (BLUE, RED):
            nbrs = sorted(adj[c][mid])
            for i, a in enumerate(nbrs):
                for b in nbrs[i + 1 :]:
                    if b not in either[a]:
                        return False
    return True


def _relabel(g: ColoredMultigraph, perm: list[int]) -> ColoredMultigraph:
    out = empty(g.n)
    for u, v, c in g.edges():
        out.add_edge(perm[u], perm[v], c)
    return out


def _entry(g: ColoredMultigraph, kind: str, arg: int = 0) -> Entry:
    return Entry(serialize_text(g), kind, g.n, arg)


# ---------------------------------------------------------------------------
# solve workloads


def _solve_op(entry: Entry):
    return merge.solve_hamiltonian(graph.parse_text(entry.text))


def _solve_summary(result) -> tuple:
    kind = type(result).__name__
    if kind == "HamiltonianCycle":
        c = result.cycle
        return (kind, c.vertices, _letters(c.colors))
    if kind == "NotTwoMClosed":
        w = result.witness
        return (kind, w.x1, w.x2, w.x3, w.c1.value, w.c2.value)
    if kind == "NotColorConnected":
        cert = result.certificate
        return (kind, cert.vertex, cert.target, cert.start_color.value)
    if kind == "NoFactor":
        return (kind,)
    raise CheckFailed(f"unknown verdict {kind}")


def _verify_solve(g: ColoredMultigraph, expected: str, summary: tuple) -> None:
    kind = summary[0]
    if kind != expected:
        raise CheckFailed(f"verdict {kind}, expected {expected}")
    if kind == "HamiltonianCycle":
        cycle = AltCycle(summary[1], _colors(summary[2]))
        if not validate_cycle(g, cycle) or set(cycle.vertices) != set(range(g.n)):
            raise CheckFailed("cycle invalid or not spanning")
    elif kind == "NotTwoMClosed":
        x1, x2, x3, c1, c2 = summary[1:]
        w = TwoPath(x1, x2, x3, Color.from_letter(c1), Color.from_letter(c2))
        if c1 != c2 or not w.holds_in(g) or not w.endpoint_edge_missing(g):
            raise CheckFailed("2-M witness does not hold")
    elif kind == "NotColorConnected":
        vertex, target, start = summary[1], summary[2], Color.from_letter(summary[3])
        if vertex == target or any(
            exists_alternating_path(g, vertex, target, start, last) is not None
            for last in (BLUE, RED)
        ):
            raise CheckFailed("non-connectivity certificate does not replay")


class SolveDense:
    """`parse_text` then `solve_hamiltonian` on complete colorings with even
    n, so every vertex sees both colors and the factor's quick rejects are
    bypassed. Every input is expected to be Hamiltonian; the returned cycle
    is the proof."""

    name = "solve-dense"
    pool_size = 30
    deterministic = False
    op = staticmethod(_solve_op)
    summarize = staticmethod(_solve_summary)

    def make_pool(self, seed: int) -> list[Entry]:
        rng = random.Random(f"{self.name}/{seed}")
        return [
            _entry(gen_complete(100 + 2 * (i % 10), rng.getrandbits(32)), "complete")
            for i in range(self.pool_size)
        ]

    def expect(self, entry: Entry, g: ColoredMultigraph) -> str:
        return "HamiltonianCycle"

    def verify(self, entry, g, expected, summary) -> None:
        _verify_solve(g, expected, summary)


def _ring(g: ColoredMultigraph, offset: int, half: int, first: Color) -> AltCycle:
    m = 2 * half
    colors = tuple(first if i % 2 == 0 else first.other for i in range(m))
    for i in range(m):
        g.add_edge(offset + i, offset + (i + 1) % m, colors[i])
    return AltCycle(tuple(range(offset, offset + m)), colors)


def _dominate(g: ColoredMultigraph, c1: AltCycle, c2: AltCycle, color: Color) -> None:
    """The full color-domination pattern of c1 over c2."""
    for cls, c in ((sorted(c1.i_set), color), (sorted(c1.p_set), color.other)):
        for a, u in enumerate(cls):
            for v in cls[a + 1 :]:
                g.add_edge(u, v, c)
        for u in cls:
            for v in c2.vertices:
                g.add_edge(u, v, c)


def _planted_tournament(rng: random.Random) -> ColoredMultigraph:
    """Alternating cycles whose dominations form an acyclic tournament (each
    cycle dominates every later one, in one color), closed under 2-M: a
    factor exists but the graph is not color-connected."""
    halves = rng.choice(((2, 2), (2, 3), (3, 3), (2, 2, 2), (2, 2, 3)))
    g = empty(2 * sum(halves))
    cycles, offset = [], 0
    for half in halves:
        cycles.append(_ring(g, offset, half, rng.choice((BLUE, RED))))
        offset += 2 * half
    for i, c in enumerate(cycles):
        color = rng.choice((BLUE, RED))
        for later in cycles[i + 1 :]:
            _dominate(g, c, later, color)
    return generate.closure_2m(g, rng.getrandbits(32))


def _disjoint_union(a: ColoredMultigraph, b: ColoredMultigraph) -> ColoredMultigraph:
    g = empty(a.n + b.n)
    for u, v, c in a.edges():
        g.add_edge(u, v, c)
    for u, v, c in b.edges():
        g.add_edge(u + a.n, v + a.n, c)
    return g


# One block of the corpus mix; the pool repeats it.
CORPUS_MIX = (
    "complete", "closure", "planted", "complete", "raw",
    "closure", "union", "complete", "closure", "planted",
)


class SolveCorpus:
    """The solve op on many small graphs (n 4-14) whose verdicts cover all
    four outcomes. Expected verdicts come from a reference 2-M check, the
    exhaustive oracles for n <= 10, and the paper's criterion (factor and
    color-connectivity) above that."""

    name = "solve-corpus"
    pool_size = 800
    deterministic = False
    op = staticmethod(_solve_op)
    summarize = staticmethod(_solve_summary)

    def make_pool(self, seed: int) -> list[Entry]:
        rng = random.Random(f"{self.name}/{seed}")
        pool = []
        for i in range(self.pool_size):
            kind = CORPUS_MIX[i % len(CORPUS_MIX)]
            n = rng.randint(4, 14)
            if kind == "complete":
                g = gen_complete(n, rng.getrandbits(32))
            elif kind == "closure":
                g = generate.closure_2m(gen_random(n, rng.getrandbits(32), 0.35), rng.getrandbits(32))
            elif kind == "raw":
                g = gen_random(n, rng.getrandbits(32), 0.35)
            elif kind == "union":
                g = _disjoint_union(
                    gen_complete(rng.choice((2, 4, 6)), rng.getrandbits(32)),
                    gen_complete(rng.choice((2, 4, 6, 8)), rng.getrandbits(32)),
                )
            else:
                g = _planted_tournament(rng)
            pool.append(_entry(g, kind))
        return pool

    def expect(self, entry: Entry, g: ColoredMultigraph) -> str:
        if not two_m_closed(g):
            return "NotTwoMClosed"
        if g.n <= 10:
            has_factor = oracle_factor(g) is not None
            hamiltonian = oracle_hamiltonian(g) is not None
            if hamiltonian != (has_factor and is_color_connected(g)):
                raise CheckFailed("oracle disagrees with the factor/connectivity criterion")
        else:
            has_factor = find_alternating_cycle_factor(g) is not None
            hamiltonian = has_factor and is_color_connected(g)
        if hamiltonian:
            return "HamiltonianCycle"
        return "NotColorConnected" if has_factor else "NoFactor"

    def verify(self, entry, g, expected, summary) -> None:
        _verify_solve(g, expected, summary)


# ---------------------------------------------------------------------------
# closure


class Closure:
    """`closure_2m` on sparse random graphs: one full 2-M rescan per added
    edge. The output must be 2-M-closed, contain the input, and repeat
    exactly for the same input."""

    name = "closure"
    pool_size = 240
    n = 16
    deterministic = True

    def make_pool(self, seed: int) -> list[Entry]:
        rng = random.Random(f"{self.name}/{seed}")
        return [
            _entry(gen_random(self.n, rng.getrandbits(32), 0.1), "random", rng.getrandbits(32))
            for _ in range(self.pool_size)
        ]

    @staticmethod
    def op(entry: Entry):
        return generate.closure_2m(graph.parse_text(entry.text), entry.arg)

    @staticmethod
    def summarize(result) -> tuple:
        return ("closed", serialize_text(result))

    def expect(self, entry: Entry, g: ColoredMultigraph) -> None:
        return None

    def verify(self, entry, g, expected, summary) -> None:
        out = graph.parse_text(summary[1])
        if out.n != g.n:
            raise CheckFailed("vertex count changed")
        if not all(out.has_edge_color(u, v, c) for u, v, c in g.edges()):
            raise CheckFailed("closure dropped an input edge")
        if not two_m_closed(out):
            raise CheckFailed("closure output is not 2-M-closed")


# ---------------------------------------------------------------------------
# color-connectivity

COUNTEREXAMPLES = ((3, 3), (3, 4), (4, 4), (4, 5), (5, 5))


class ColorConnected:
    """`color_connectivity_witness` on random graphs and on vertex-permuted
    counterexample-family graphs (color-connected by construction). A pair
    witness must agree with its existence table; a connected verdict must be
    backed by a verified path for every pair."""

    name = "color-connected"
    n = 12
    random_count = 600
    copies = 2
    pool_size = random_count + copies * len(COUNTEREXAMPLES)
    deterministic = True

    def make_pool(self, seed: int) -> list[Entry]:
        rng = random.Random(f"{self.name}/{seed}")
        pool = [
            _entry(gen_random(self.n, rng.getrandbits(32), 0.3), "random")
            for _ in range(self.random_count)
        ]
        step = self.random_count // (self.copies * len(COUNTEREXAMPLES))
        at = 0
        for k1, k2 in COUNTEREXAMPLES:
            base = gen_counterexample(k1, k2)
            for _ in range(self.copies):
                perm = list(range(base.n))
                rng.shuffle(perm)
                pool.insert(at, _entry(_relabel(base, perm), "counterexample"))
                at += step + 1
        return pool

    @staticmethod
    def op(entry: Entry):
        return predicates.color_connectivity_witness(graph.parse_text(entry.text))

    @staticmethod
    def summarize(result) -> tuple:
        if result is None:
            return ("connected",)
        table = tuple(sorted((f.value + l.value, ok) for (f, l), ok in result.existence.items()))
        return ("witness", result.x, result.y, table)

    def expect(self, entry: Entry, g: ColoredMultigraph) -> str | None:
        return "connected" if entry.kind == "counterexample" else None

    def verify(self, entry, g, expected, summary) -> None:
        if expected is not None and summary[0] != expected:
            raise CheckFailed(f"verdict {summary[0]}, expected {expected}")
        if summary[0] == "witness":
            x, y, table = summary[1], summary[2], dict(summary[3])
            if not 0 <= x < y < g.n or len(table) != 4:
                raise CheckFailed("malformed witness")
            for key, ok in table.items():
                if _path_ok(g, x, y, *_colors(key)) != ok:
                    raise CheckFailed(f"existence table entry {key} does not replay")
            if (table["BB"] and table["RR"]) or (table["BR"] and table["RB"]):
                raise CheckFailed("witness pair is color-connected")
        else:
            for x in range(g.n):
                for y in range(x + 1, g.n):
                    if not (
                        (_path_ok(g, x, y, BLUE, BLUE) and _path_ok(g, x, y, RED, RED))
                        or (_path_ok(g, x, y, BLUE, RED) and _path_ok(g, x, y, RED, BLUE))
                    ):
                        raise CheckFailed(f"pair {x},{y} is not color-connected")


def _path_ok(g: ColoredMultigraph, x: int, y: int, first: Color, last: Color) -> bool:
    """Whether a path is found; a found path must hold in g with the asked
    endpoints and end colors."""
    path = exists_alternating_path(g, x, y, first, last)
    if path is None:
        return False
    if not (
        path.holds_in(g)
        and path.vertices[0] == x
        and path.vertices[-1] == y
        and path.colors[0] is first
        and path.colors[-1] is last
    ):
        raise CheckFailed(f"returned path {x}->{y} is invalid")
    return True


WORKLOADS = {w.name: w for w in (SolveDense(), SolveCorpus(), Closure(), ColorConnected())}
