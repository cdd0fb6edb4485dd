"""Shared builders for planted instances used across the test modules."""

from __future__ import annotations

import importlib.util
import random
import signal
import sys
from itertools import combinations
from pathlib import Path

import pytest

import altcycles as ac
from altcycles import BLUE, RED, AltCycle, Color, ColoredMultigraph
from altcycles.cycles import cycle_from_vertex_sequence
from altcycles.graph import alternating, bits

# far above the slowest test (about 9 s on a two-vCPU host), so only a
# search gone exponential reaches it
TEST_TIME_LIMIT_S = 120


@pytest.fixture(autouse=True)
def time_limit():
    """Fail a test that runs past TEST_TIME_LIMIT_S instead of hanging the
    suite, where the platform has SIGALRM."""
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def expire(signum, frame):
        pytest.fail(f"test ran past its {TEST_TIME_LIMIT_S} s limit", pytrace=False)

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(TEST_TIME_LIMIT_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def ring(g: ColoredMultigraph, offset: int, half: int, first=BLUE) -> AltCycle:
    """Add an alternating cycle on 2*half consecutive vertices and return it."""
    n = 2 * half
    colors = alternating(first, n)
    for i in range(n):
        g.add_edge(offset + i, offset + (i + 1) % n, colors[i])
    return AltCycle(tuple(range(offset, offset + n)), colors)


def dominate(g: ColoredMultigraph, c1: AltCycle, c2: AltCycle, color) -> None:
    """Plant the full color-domination pattern of c1 over c2.

    Even-position vertices of c1 get `color` internally and toward all of
    c2; odd-position vertices get the other color for both.
    """
    evens, odds = sorted(c1.i_set), sorted(c1.p_set)
    for cls, c in ((evens, color), (odds, color.other)):
        for a, u in enumerate(cls):
            for v in cls[a + 1 :]:
                g.add_edge(u, v, c)
        for u in cls:
            for v in c2.vertices:
                g.add_edge(u, v, c)


def complete_within(g: ColoredMultigraph, cycle: AltCycle, chord_color=BLUE) -> None:
    """Add chords inside one cycle's vertex set until no monochromatic
    2-path there is missing its endpoint edge."""
    verts = sorted(cycle.vertices)
    changed = True
    while changed:
        changed = False
        for w in ac.two_m_violations(g):
            if w.x1 in verts and w.x3 in verts and w.endpoint_edge_missing(g):
                g.add_edge(w.x1, w.x3, chord_color)
                changed = True


def assert_no_alternating_path(g: ColoredMultigraph, vertex: int, target: int, start: Color):
    """Replay a not-color-connected certificate: no alternating walk from
    `vertex` to `target` starts with `start`, whatever its last color, and
    so no alternating path does either.

    The search runs over (vertex, color of its next edge) states, each
    entered once, so it takes O(n + m) steps where a path search may take
    exponentially many."""
    g.check_vertices(vertex, target)
    adj = (g.masks(BLUE), g.masks(RED))  # indexed by `color is RED`
    entered = [0, 0]  # per color index, the vertices entered with it next
    todo = [(vertex, int(start is RED))]
    while todo:
        v, c = todo.pop()
        for u in bits(adj[c][v] & ~entered[1 - c]):
            entered[1 - c] |= 1 << u
            todo.append((u, 1 - c))
    assert not (entered[0] | entered[1]) >> target & 1, ac.serialize_text(g)


def domination_pair_graph() -> tuple[ColoredMultigraph, AltCycle, AltCycle]:
    """Two disjoint alternating cycles where the first blue-dominates the
    second and no good pair exists; the graph is 2-M-closed."""
    g = ac.empty(10)
    c1 = ring(g, 0, 3)
    c2 = ring(g, 6, 2)
    dominate(g, c1, c2, BLUE)
    complete_within(g, c1)
    complete_within(g, c2)
    assert ac.is_2m_closed(g)
    return g, c1, c2


def triangle_graph(colors) -> tuple[ColoredMultigraph, list[AltCycle]]:
    """Three disjoint alternating cycles with a directed domination
    triangle 0 -> 1 -> 2 -> 0 using the given arc colors."""
    g = ac.empty(14)
    cycles = [ring(g, 0, 2), ring(g, 4, 2), ring(g, 8, 3)]
    dominate(g, cycles[0], cycles[1], colors[0])
    dominate(g, cycles[1], cycles[2], colors[1])
    dominate(g, cycles[2], cycles[0], colors[2])
    for c in cycles:
        complete_within(g, c)
    return g, cycles


def not_color_connected_graph() -> tuple[ColoredMultigraph, list[AltCycle]]:
    """Three cycles with all dominations blue and acyclic (0 beats 1 and 2,
    1 beats 2): 2-M-closed, has a factor, but not color-connected."""
    g = ac.empty(12)
    cycles = [ring(g, 0, 2), ring(g, 4, 2), ring(g, 8, 2)]
    dominate(g, cycles[0], cycles[1], BLUE)
    dominate(g, cycles[0], cycles[2], BLUE)
    dominate(g, cycles[1], cycles[2], BLUE)
    for c in cycles:
        complete_within(g, c)
    assert ac.is_2m_closed(g)
    return g, cycles


def two_cycle_gap_graph() -> ColoredMultigraph:
    """2-M-closed, color-connected, with a factor of three 2-cycles, but no
    alternating Hamiltonian cycle; the solver raises StructureViolation on it."""
    return ac.parse_text(
        "n 6\n"
        "e 0 1 B\ne 0 1 R\ne 0 4 B\ne 0 5 R\ne 1 4 B\ne 1 5 R\n"
        "e 2 3 B\ne 2 3 R\ne 2 4 R\ne 2 5 B\ne 3 4 R\ne 3 5 B\n"
        "e 4 5 B\ne 4 5 R\n"
    )


def complete_coloring(n: int, letters: str) -> ColoredMultigraph:
    """The complete graph on range(n), one edge per pair, colored by
    `letters` ("B"/"R") in `combinations(range(n), 2)` order."""
    g = ac.empty(n)
    for (u, v), letter in zip(combinations(range(n), 2), letters, strict=True):
        g.add_edge(u, v, Color.from_letter(letter))
    return g


def G8() -> tuple[ColoredMultigraph, list[AltCycle]]:
    """2-M-closed, with an alternating Hamiltonian cycle; returns the graph
    and the factor [A, B] of two red-first 4-cycles, A = 0..3, B = 4..7.
    The solver merges it by a chord in both orders."""
    g = complete_coloring(8, "RRBRBRRBRRBBBRRRRBBBRBRRBBRR")
    return g, [cycle_from_vertex_sequence(g, span) for span in (range(4), range(4, 8))]


def G8b() -> tuple[ColoredMultigraph, list[AltCycle]]:
    """2-M-closed and color-connected, with the alternating Hamiltonian
    cycle 0 1 4 5 2 3 6 7; returns the graph and its factor [A, B] of two
    blue-first 4-cycles, A = 0..3, B = 4..7. No construction merges the pair
    at its smallest cross edge; the solver merges it by the mixed star at a
    later anchor, in both orders."""
    g = complete_coloring(8, "BRRRBRRRBRBBBBRRRBBBRBBRRRBB")
    return g, [cycle_from_vertex_sequence(g, span) for span in (range(4), range(4, 8))]


def G12() -> tuple[ColoredMultigraph, list[AltCycle]]:
    """2-M-closed; returns the graph and the factor [ring 4..11 red-first,
    ring 0..3 blue-first], which merges by the mixed star with the first
    cycle the longer, so its rest is walked back."""
    g = complete_coloring(
        12, "BRRBBRBBBRBRRRBRRRBRRBRBBBRBBBRRRBRRRBRRRRRRBBRRRRRRRRRRBRRRRRRBRR"
    )
    return g, [cycle_from_vertex_sequence(g, span) for span in (range(4, 12), range(4))]


def blue_apex(n: int, seed: int, neighbors=None) -> ColoredMultigraph:
    """`gen_complete(n, seed)` plus vertex n, joined in blue to each of
    `neighbors` (every other vertex by default). Vertex n has no red edge,
    so (0, n) fails color-connectivity."""
    g = ac.empty(n + 1)
    for u, v, c in ac.gen_complete(n, seed).edges():
        g.add_edge(u, v, c)
    for v in range(n) if neighbors is None else neighbors:
        g.add_edge(v, n, BLUE)
    return g


def both_colored_ring(n: int) -> ColoredMultigraph:
    """The cycle 0, 1, ..., n - 1 with every edge in both colors."""
    g = ac.empty(n)
    for v in range(n):
        g.add_edge(v, (v + 1) % n, BLUE).add_edge(v, (v + 1) % n, RED)
    return g


def hub_shape(shape: str, n: int, seed: int = 0, extra: int = 0) -> ColoredMultigraph:
    """An n-vertex graph whose hubs are joined to every other vertex:
    "star", vertex 0 in both colors; "mixed-star", vertex 0 in blue to the
    odd vertices and in red to the even ones, as tools/envelope.sh builds
    it; "k3", vertices 0, 1 and 2 in both colors to each of 3..n-1. Then
    `extra` random edges, of random colors, drawn from `seed`."""
    g = ac.empty(n)
    hubs = 3 if shape == "k3" else 1
    for u in range(hubs):
        for v in range(hubs, n):
            for color in (BLUE, RED) if shape != "mixed-star" else ((RED, BLUE)[v % 2],):
                g.add_edge(u, v, color)
    rng = random.Random(seed)
    for _ in range(extra):
        u, v = rng.sample(range(n), 2)
        g.add_edge(u, v, BLUE if rng.getrandbits(1) else RED)
    return g


def gate_gadget(m: int, seed: int, gate_first: bool) -> ColoredMultigraph:
    """`gen_complete(m, seed)` plus a 5-vertex gadget on m..m+4, joined to it
    only by the red edge from m - 1 to the gate a: a-c and a-y in both
    colors, b-c red, b-d blue, c-d red. The target y is numbered m + 4 and
    a m if `gate_first`, else the two swap; b, c, d are m+1..m+3.

    b, c and d lie behind a, so no path from the complete part enters a in
    blue, and none enters y in red, which needs a entered in blue; an
    alternating walk does both, round c, b, d, c. The witness fails at
    (0, m) either way: gate-first BB and RB, target-first BR and RR."""
    a, y = (m, m + 4) if gate_first else (m + 4, m)
    b, c, d = m + 1, m + 2, m + 3
    g = ac.empty(m + 5)
    for u, v, color in ac.gen_complete(m, seed).edges():
        g.add_edge(u, v, color)
    g.add_edge(m - 1, a, RED)
    for u, v, colors in ((a, c, "BR"), (a, y, "BR"), (b, c, "R"), (b, d, "B"), (c, d, "R")):
        for letter in colors:
            g.add_edge(u, v, Color.from_letter(letter))
    return g


def small_corpus(count: int, sizes=range(4, 9), seed0: int = 0):
    """Deterministic mix of complete-random and closed-up random graphs."""
    out = []
    seed = seed0
    while len(out) < count:
        for n in sizes:
            if len(out) >= count:
                break
            if seed % 2 == 0:
                out.append(ac.gen_complete(n, seed))
            else:
                out.append(ac.closure_2m(ac.gen_random(n, seed, 0.35), seed))
            seed += 1
    return out


def bench_module(name: str):
    """`bench/<name>.py`, loaded by path: `bench/` is not a package."""
    path = Path(__file__).resolve().parents[1] / "bench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"bench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve through sys.modules
    spec.loader.exec_module(module)
    return module


def bench_pool_graphs(workload: str, seed: int) -> list[ColoredMultigraph]:
    """The benchmark's pool of `workload` (`bench/workloads.py`) for `seed`,
    parsed."""
    pool = bench_module("workloads").WORKLOADS[workload].make_pool(seed)
    return [ac.parse_text(e.text) for e in pool]


def solve_corpus_graphs(seed: int) -> list[ColoredMultigraph]:
    """The solve-corpus pool: small graphs of all four solve verdicts."""
    return bench_pool_graphs("solve-corpus", seed)


def color_connected_graphs(seed: int) -> list[ColoredMultigraph]:
    """The color-connected pool: random n=12 graphs and relabelled
    counterexample-family graphs."""
    return bench_pool_graphs("color-connected", seed)


def planted_instance(seed: int):
    """2-M closure of 2-4 planted rings (half-lengths 1-3, n <= 12) with a
    random domination, either way or none, per ring pair and 0-3 stray
    edges; returns the graph and the planted cycles, still a factor of it."""
    rng = random.Random(seed)
    while True:
        halves = [rng.randint(1, 3) for _ in range(rng.randint(2, 4))]
        if sum(halves) <= 6:
            break
    n = 2 * sum(halves)
    g = ac.empty(n)
    cycles, offset = [], 0
    for half in halves:
        cycles.append(ring(g, offset, half, rng.choice((BLUE, RED))))
        offset += 2 * half
    for i in range(len(cycles)):
        for j in range(i + 1, len(cycles)):
            pick = rng.randrange(3)
            if pick:
                a, b = (cycles[i], cycles[j]) if pick == 1 else (cycles[j], cycles[i])
                dominate(g, a, b, rng.choice((BLUE, RED)))
    for _ in range(rng.randint(0, 3)):
        u, v = rng.sample(range(n), 2)
        g.add_edge(u, v, rng.choice((BLUE, RED)))
    return ac.closure_2m(g, seed, rng.choice(("B", "R", "random"))), cycles


def two_square_coloring(code: int, first: Color):
    """A complete coloring of range(8) in which A = 0 1 2 3 is a blue-first
    and B = 4 5 6 7 a `first`-first alternating 4-cycle; bit k of the 20-bit
    `code` makes the k-th other pair, in combinations order, red."""
    a = AltCycle((0, 1, 2, 3), (BLUE, RED) * 2)
    b = AltCycle((4, 5, 6, 7), (first, first.other) * 2)
    on_cycles = {
        frozenset((c.vertices[k], c.vertices[k - 1])): c.colors[k - 1]
        for c in (a, b)
        for k in range(4)
    }
    g, k = ac.empty(8), 0
    for u, v in combinations(range(8), 2):
        color = on_cycles.get(frozenset((u, v)))
        if color is None:
            color, k = (RED if code >> k & 1 else BLUE), k + 1
        g.add_edge(u, v, color)
    return g, a, b


# Of all 2,097,152 such colorings, those on which merge_pair raised while a
# route guessed which cycle dominates: in one argument order only, or, while
# it also anchored only at the smallest cross edge, in both (G8b is 334939
# blue). All of them now merge.
ONE_ORDER_CODES = {
    BLUE: (
        72794, 72795, 189316, 189348, 451460, 451492, 494320, 494321, 554255, 554287,
        597082, 597083, 816399, 816431, 1018608, 1018609, 29966, 29998, 232144, 232145,
        292110, 292142, 334970, 334971, 713605, 713637, 756432, 756433, 859258, 859259,
        975749, 975781,
    ),
    RED: (
        78926, 78927, 183184, 183216, 445328, 445360, 500452, 500453, 548123, 548155,
        603214, 603215, 810267, 810299, 1024740, 1024741, 23834, 23866, 238276, 238277,
        285978, 286010, 341102, 341103, 707473, 707505, 762564, 762565, 865390, 865391,
        969617, 969649,
    ),
}
BOTH_ORDER_CODES = {
    BLUE: (
        29967, 29999, 232176, 232177, 292111, 292143, 334938, 334939, 713604, 713636,
        756464, 756465, 859226, 859227, 975748, 975780,
    ),
    RED: (
        23835, 23867, 238308, 238309, 285979, 286011, 341070, 341071, 707472, 707504,
        762596, 762597, 865358, 865359, 969616, 969648,
    ),
}
