from __future__ import annotations

import random
import tracemalloc

import pytest

import altcycles as ac
from altcycles import BLUE, RED, Color, NotTwoMClosed, predicates
from altcycles.graph import OutOfRangeError, bits
from altcycles.predicates import (
    AltPath,
    ColorConnectivityWitness,
    TwoPath,
    closed_alternating_witness,
    color_connectivity_witness,
)
from conftest import not_color_connected_graph, ring, small_corpus


def path_graph(*colors):
    g = ac.empty(len(colors) + 1)
    for i, c in enumerate(colors):
        g.add_edge(i, i + 1, c)
    return g


def test_two_m_violations():
    g = path_graph(BLUE, BLUE)
    (w,) = ac.two_m_violations(g)
    assert (w.x1, w.x2, w.x3) == (0, 1, 2)
    assert w.holds_in(g) and w.endpoint_edge_missing(g)
    assert not ac.is_2m_closed(g)
    # any endpoint edge color closes it
    for c in (BLUE, RED):
        h = g.copy().add_edge(0, 2, c)
        assert ac.is_2m_closed(h)


def test_two_path_is_a_read_only_record():
    w = TwoPath(0, 1, 2, BLUE, RED)
    # the equivalence digests hash these reprs
    assert repr(w) == "TwoPath(x1=0, x2=1, x3=2, c1=B, c2=R)"
    assert (
        repr(NotTwoMClosed(TwoPath(0, 1, 2, BLUE, BLUE)))
        == "NotTwoMClosed(witness=TwoPath(x1=0, x2=1, x3=2, c1=B, c2=B))"
    )
    with pytest.raises(AttributeError):
        w.x1 = 3
    twin = TwoPath(0, 1, 2, BLUE, RED)
    assert w == twin and hash(w) == hash(twin) and len({w, twin}) == 1
    assert w != TwoPath(0, 1, 2, BLUE, BLUE)
    # a tuple of its five fields
    assert w == (0, 1, 2, BLUE, RED) and len(w) == 5 and list(w)[3] is BLUE
    g = path_graph(BLUE, RED)
    assert w.holds_in(g) and w.endpoint_edge_missing(g)
    assert not TwoPath(0, 1, 2, RED, RED).holds_in(g)
    assert not TwoPath(0, 1, 0, BLUE, BLUE).holds_in(g)
    g.add_edge(0, 2, RED)
    assert w.holds_in(g) and not w.endpoint_edge_missing(g)


def test_two_m_ignores_mixed_paths():
    g = path_graph(BLUE, RED)
    assert ac.is_2m_closed(g)
    assert not ac.is_2nm_closed(g)
    (w,) = ac.two_nm_violations(g)
    assert (w.x1, w.x2, w.x3) == (0, 1, 2)
    assert ac.is_2nm_closed(g.copy().add_edge(0, 2, BLUE))


def test_two_nm_ignores_mono_paths():
    g = path_graph(RED, RED)
    assert ac.is_2nm_closed(g)
    assert not ac.is_2m_closed(g)


def test_parallel_pair_counts_both_ways():
    # both colors on one pair plus one more edge: the mixed 2-path through
    # the doubled pair needs closing for the non-monochromatic predicate
    g = ac.empty(3)
    g.add_edge(0, 1, BLUE).add_edge(0, 1, RED).add_edge(1, 2, BLUE)
    assert not ac.is_2nm_closed(g)
    assert not ac.is_2m_closed(g)


def test_violations_deterministic_order():
    g = path_graph(BLUE, BLUE, BLUE)
    vs = ac.two_m_violations(g)
    assert [(w.x1, w.x2, w.x3) for w in vs] == [(0, 1, 2), (1, 2, 3)]


def test_closed_alternating():
    g = ac.empty(6)
    ring(g, 0, 3)
    w = closed_alternating_witness(g)
    assert w is not None and not ac.is_closed_alternating(g)
    x1, x2, x3, x4 = w
    assert g.has_edge_any(x1, x2) and g.has_edge_any(x2, x3) and g.has_edge_any(x3, x4)
    # a 4-cycle with alternating colors closes all its own 3-paths
    h = ac.empty(4)
    ring(h, 0, 2)
    h.add_edge(0, 2, BLUE).add_edge(0, 2, RED)
    h.add_edge(1, 3, BLUE).add_edge(1, 3, RED)
    assert ac.is_closed_alternating(h)


def test_closes_runs_once_per_end_pair(monkeypatch):
    calls = []
    real = predicates._closes

    def spy(adj, x1, x4):
        calls.append((x1, x4))
        return real(adj, x1, x4)

    monkeypatch.setattr(predicates, "_closes", spy)
    graphs = [ac.gen_complete(n, n) for n in (6, 12, 20)]
    graphs += [ac.closure_2m(ac.gen_random(10, s, 0.3), s) for s in range(20)]
    for g in graphs:
        calls.clear()
        closed_alternating_witness(g)
        assert calls and len(calls) == len(set(calls))


def test_three_path_ends_are_exact():
    """`_three_path_ends` against the ends of every alternating 3-path: a
    missing end would lose a witness, an extra one would walk the paths of
    an x1 for nothing. `gen_random` puts both colors on some pairs, so some
    3-paths would return to their x2, the case the lone-x2 rule drops."""
    for seed in range(300):
        g = ac.gen_random(2 + seed % 11, seed, 0.1 + 0.6 * (seed % 5) / 4)
        adj = (g.masks(BLUE), g.masks(RED))
        for x1 in range(g.n):
            want = 0
            for c1 in (0, 1):
                for x2 in bits(adj[c1][x1]):
                    for x3 in bits(adj[1 - c1][x2] & ~(1 << x1)):
                        want |= adj[c1][x3] & ~(1 << x1 | 1 << x2)
            assert predicates._three_path_ends(adj, x1) == want


def test_exists_alternating_path_basic():
    g = path_graph(BLUE, RED, BLUE)
    p = ac.exists_alternating_path(g, 0, 3, BLUE, BLUE)
    assert p is not None and p.well_formed() and p.holds_in(g)
    assert p.vertices[0] == 0 and p.vertices[-1] == 3
    assert ac.exists_alternating_path(g, 0, 3, RED, BLUE) is None
    assert ac.exists_alternating_path(g, 0, 3, BLUE, RED) is None
    assert ac.exists_alternating_path(g, 0, 1, BLUE, BLUE) is not None
    with pytest.raises(ValueError):
        ac.exists_alternating_path(g, 0, 0, BLUE, BLUE)
    for x, y, named in ((-1, 3, -1), (0, 4, 4), (4, -1, 4)):
        with pytest.raises(OutOfRangeError, match=rf"^vertex {named} outside 0\.\.3$"):
            ac.exists_alternating_path(g, x, y, BLUE, BLUE)


def test_exists_alternating_path_needs_alternation():
    g = path_graph(BLUE, BLUE)
    assert ac.exists_alternating_path(g, 0, 2, BLUE, BLUE) is None
    g.add_edge(1, 2, RED)
    assert ac.exists_alternating_path(g, 0, 2, BLUE, RED) is not None


def test_path_search_matches_oracle_small():
    for g in small_corpus(12, sizes=range(2, 7)):
        for x in range(g.n):
            for y in range(x + 1, g.n):
                for first in (BLUE, RED):
                    for last in (BLUE, RED):
                        fast = ac.exists_alternating_path(g, x, y, first, last)
                        slow = ac.oracle_alt_path(g, x, y, first, last)
                        assert (fast is None) == (slow is None)
                        if fast is not None:
                            assert fast.well_formed() and fast.holds_in(g)
                            assert fast.colors[0] is first
                            assert fast.colors[-1] is last


def test_color_connected_two_vertices():
    g = ac.empty(2)
    g.add_edge(0, 1, BLUE)
    assert not ac.is_color_connected(g)
    g.add_edge(0, 1, RED)
    assert ac.is_color_connected(g)


def test_color_connectivity_witness_fields():
    g, _cycles = not_color_connected_graph()
    w = color_connectivity_witness(g)
    assert w is not None
    assert 0 <= w.x < w.y < g.n
    # replay: neither way of picking the two paths works for this pair
    same = all(
        w.existence.get((a, b), False) for (a, b) in ((BLUE, BLUE), (RED, RED))
    )
    crossed = all(
        w.existence.get((a, b), False) for (a, b) in ((BLUE, RED), (RED, BLUE))
    )
    assert not same and not crossed


def test_witness_runs_only_the_searches_its_verdict_needs(monkeypatch):
    calls = []
    search = predicates.exists_alternating_path

    def counted(g, x, y, first, last):
        calls.append((x, y, first, last))
        return search(g, x, y, first, last)

    monkeypatch.setattr(predicates, "exists_alternating_path", counted)
    g = ac.empty(6)
    for u in range(6):
        for v in range(u + 1, 6):
            g.add_edge(u, v, BLUE).add_edge(u, v, RED)
    # BB and RR settle each pair. Vertex 0's paths run through every other
    # vertex, so their subpaths answer every later pair without a search
    assert color_connectivity_witness(g) is None
    assert calls == [(0, y, c, c) for y in range(1, 6) for c in Color]

    graphs = [not_color_connected_graph()[0]]
    graphs += [ac.gen_random(4 + s % 7, s, 0.2 + 0.1 * (s % 4)) for s in range(40)]
    for g in graphs:
        calls.clear()
        w = color_connectivity_witness(g)
        # no (pair, key) is searched twice
        assert len(set(calls)) == len(calls)
        if w is None:
            continue
        assert list(w.existence) == [(BLUE, BLUE), (BLUE, RED), (RED, BLUE), (RED, RED)]
        # False comes only from a search: a witness key never searched was
        # answered True by a recorded subpath
        at_witness = {c[2:] for c in calls if c[:2] == (w.x, w.y)}
        assert all(w.existence[key] for key in set(w.existence) - at_witness)
        assert calls[-1][:2] == (w.x, w.y)


def known_paths(known):
    """The (a, b, first, last) entries of a witness table, a < b."""
    return {
        (a, a + 1 + k, f, l)
        for f in Color
        for l in Color
        for a, row in enumerate(known[f is RED][l is RED])
        for k in bits(row)
    }


def subpaths(path):
    """(a, b, first, last) of each subpath of `path`, oriented a < b."""
    vs, cs = path.vertices, path.colors
    out = set()
    for i in range(len(vs)):
        for j in range(i + 1, len(vs)):
            a, b, f, l = vs[i], vs[j], cs[i], cs[j - 1]
            out.add((a, b, f, l) if a < b else (b, a, l, f))
    return out


def test_table_records_exactly_the_subpaths_of_each_path():
    records = 0
    for seed in range(60):
        g = ac.gen_random(3 + seed % 7, seed, 0.2 + 0.1 * (seed % 5))
        replayed = {}
        everything = [[[0] * g.n for _ in range(2)] for _ in range(2)]
        union = set()
        for x in range(g.n):
            for y in range(g.n):
                if x == y:
                    continue
                for first in Color:
                    for last in Color:
                        path = ac.exists_alternating_path(g, x, y, first, last)
                        if path is None:
                            continue
                        known = [[[0] * g.n for _ in range(2)] for _ in range(2)]
                        predicates._record_subpaths(known, path)
                        got = known_paths(known)
                        assert got == subpaths(path)
                        for entry in got:
                            if entry not in replayed:
                                replayed[entry] = ac.oracle_alt_path(g, *entry) is not None
                            assert replayed[entry], entry
                        predicates._record_subpaths(everything, path)
                        union |= got
                        records += 1
        assert known_paths(everything) == union
    assert records > 1000


def eager_color_connectivity_witness(g):
    """Reference: the witness with all four searches run for every pair."""
    for x in range(g.n):
        for y in range(x + 1, g.n):
            ex = {
                (f, l): ac.exists_alternating_path(g, x, y, f, l) is not None
                for f in Color
                for l in Color
            }
            ok = (ex[(BLUE, BLUE)] and ex[(RED, RED)]) or (
                ex[(BLUE, RED)] and ex[(RED, BLUE)]
            )
            if not ok:
                return ColorConnectivityWitness(x, y, ex)
    return None


def test_lazy_witness_matches_eager_reference(monkeypatch):
    graphs = [ac.gen_random(2 + s % 11, s, 0.1 + 0.4 * (s % 9) / 8) for s in range(500)]
    rng = random.Random(12)
    for k1, k2 in ((2, 2), (2, 3), (3, 3), (2, 4)):
        base = ac.gen_counterexample(k1, k2)
        for _ in range(3):
            perm = rng.sample(range(base.n), base.n)
            edges = base.edges()
            drop = rng.randrange(len(edges))
            for keep in (edges, edges[:drop] + edges[drop + 1 :]):
                h = ac.empty(base.n)
                for u, v, c in keep:
                    h.add_edge(perm[u], perm[v], c)
                graphs.append(h)
    # the call's table, seen through the module global the witness records by
    tables = []
    record = predicates._record_subpaths

    def spy(known, path):
        tables[:] = [known]
        record(known, path)

    monkeypatch.setattr(predicates, "_record_subpaths", spy)
    verdicts = {True: 0, False: 0}
    replayed = 0
    for g in graphs:
        tables.clear()
        got = color_connectivity_witness(g)
        assert repr(got) == repr(eager_color_connectivity_witness(g))
        verdicts[got is None] += 1
        # a wrong table entry need not decide a verdict: replay every one
        for entry in known_paths(tables[0]) if tables else ():
            assert ac.exists_alternating_path(g, *entry) is not None, entry
            replayed += 1
    assert min(verdicts.values()) > 50
    assert replayed > 5000


def test_color_connected_monotone_under_supergraph():
    for g in small_corpus(10, sizes=range(3, 7)):
        if not ac.is_color_connected(g):
            continue
        h = g.copy()
        for u in range(h.n):
            for v in range(u + 1, h.n):
                h.add_edge(u, v, BLUE)
        # adding edges never destroys color-connectivity
        assert ac.is_color_connected(h)


def test_alt_path_well_formed():
    assert AltPath((0, 1, 2), (BLUE, RED)).well_formed()
    assert not AltPath((0, 1, 2), (BLUE, BLUE)).well_formed()
    assert not AltPath((0, 1, 0), (BLUE, RED)).well_formed()
    assert not AltPath((0,), ()).well_formed()
    assert not AltPath((0, 1, 2), (BLUE,)).well_formed()  # one color short


# Set-based references: the implementations the bit-mask core replaced.


def set_adjacency(g):
    adj = {c: [set() for _ in range(g.n)] for c in (BLUE, RED)}
    for u in range(g.n):
        for v in range(u + 1, g.n):
            for c in (BLUE, RED):
                if g.has_edge_color(u, v, c):
                    adj[c][u].add(v)
                    adj[c][v].add(u)
    return adj


def ref_edges(g):
    return [
        (u, v, c)
        for u in range(g.n)
        for v in range(u + 1, g.n)
        for c in (BLUE, RED)
        if g.has_edge_color(u, v, c)
    ]


def ref_two_path(a, b, c, ca, cc):
    return TwoPath(a, b, c, ca, cc) if a < c else TwoPath(c, b, a, cc, ca)


def ref_violations(adj, mono):
    def joined(u, v):
        return v in adj[BLUE][u] or v in adj[RED][u]

    out = []
    for x2 in range(len(adj[BLUE])):
        if mono:
            for color in (BLUE, RED):
                nbrs = sorted(adj[color][x2])
                for i, x1 in enumerate(nbrs):
                    for x3 in nbrs[i + 1 :]:
                        if not joined(x1, x3):
                            out.append(ref_two_path(x1, x2, x3, color, color))
        else:
            for x1 in adj[BLUE][x2]:
                for x3 in adj[RED][x2]:
                    if x1 != x3 and not joined(x1, x3):
                        out.append(ref_two_path(x1, x2, x3, BLUE, RED))
    return sorted(set(out), key=lambda p: (p.x1, p.x2, p.x3, p.c1.value))


def ref_closed_alternating_witness(adj):
    def closes(x1, x4):
        for a in (BLUE, RED):
            if x1 not in adj[a.other][x4]:
                continue
            for y in adj[a][x1] - {x4}:
                for w in adj[a.other][y] - {x1, x4}:
                    if x4 in adj[a][w]:
                        return True
        return False

    for x1 in range(len(adj[BLUE])):
        for c1 in (BLUE, RED):
            for x2 in sorted(adj[c1][x1]):
                for x3 in sorted(adj[c1.other][x2] - {x1}):
                    for x4 in sorted(adj[c1][x3] - {x1, x2}):
                        if not closes(x1, x4):
                            return (x1, x2, x3, x4)
    return None


def ref_closure_2m(g, seed):
    """`closure_2m`'s policy run on set adjacency; returns the adjacency."""
    rng = random.Random(seed)
    adj = set_adjacency(g)
    while violations := ref_violations(adj, mono=True):
        v = violations[0]
        c = BLUE if rng.getrandbits(1) else RED
        adj[c][v.x1].add(v.x3)
        adj[c][v.x3].add(v.x1)
    return adj


def ref_alternating_path(adj, x, y, first, last):
    path = [x]
    on_path = {x}

    def dfs(v, need):
        for u in sorted(adj[need][v]):
            if u in on_path:
                continue
            if u == y:
                if need is last:
                    cols = tuple(first if k % 2 == 0 else first.other for k in range(len(path)))
                    return AltPath(tuple(path) + (y,), cols)
                continue
            path.append(u)
            on_path.add(u)
            found = dfs(u, need.other)
            if found is not None:
                return found
            path.pop()
            on_path.remove(u)
        return None

    return dfs(x, first)


def test_mask_scanners_match_set_reference():
    closures = 0
    for seed in range(2000):
        g = ac.gen_random(2 + seed % 19, seed, 0.05 + 0.55 * (seed % 12) / 11)
        adj = set_adjacency(g)
        assert g.edges() == ref_edges(g)
        assert ac.two_m_violations(g) == ref_violations(adj, mono=True)
        assert ac.two_nm_violations(g) == ref_violations(adj, mono=False)
        assert closed_alternating_witness(g) == ref_closed_alternating_witness(adj)
        if seed % 13 < 2:
            closures += 1
            closed = ac.closure_2m(g, seed)
            ref_adj = ref_closure_2m(g, seed)
            assert set_adjacency(closed) == ref_adj
            if g.n <= 14:  # the reference's full scan of a closed graph is slow
                assert closed_alternating_witness(closed) == ref_closed_alternating_witness(ref_adj)
    assert closures == 308


def test_two_m_scan_on_near_complete_graphs():
    """Complete colorings skip every row of the 2-M scan; with a few edges
    deleted, the rows that still reach a non-neighbor must be scanned."""
    rng = random.Random(11)
    open_paths = 0
    for n in range(2, 41):
        for s in range(8):
            lines = ac.serialize_text(ac.gen_complete(n, 100 * n + s)).splitlines()
            for _ in range(min(rng.randint(0, 3), len(lines) - 1)):
                lines.pop(rng.randrange(1, len(lines)))
            g = ac.parse_text("\n".join(lines))
            got = ac.two_m_violations(g)
            assert got == ref_violations(set_adjacency(g), mono=True)
            if g.edge_count() == n * (n - 1) // 2:
                assert got == []
            else:
                open_paths += got != []
    assert open_paths > 200


def test_two_path_scans_on_sparse_graphs_past_64_vertices():
    """Masks of more than 64 bits are multi-digit ints; both scans must
    still match the set reference, order included."""
    found = {True: 0, False: 0}
    for k, n in enumerate((60, 64, 65, 97, 128, 130)):
        g = ac.gen_random(n, 900 + k, (2 + k % 3) / n)
        adj = set_adjacency(g)
        for mono, scan in ((True, ac.two_m_violations), (False, ac.two_nm_violations)):
            got = scan(g)
            assert got == ref_violations(adj, mono)
            found[mono] += len(got)
    assert min(found.values()) > 1000


def test_path_search_matches_recursive_reference():
    answers = 0
    for seed in range(1500):
        g = ac.gen_random(3 + seed % 10, seed, 0.1 + 0.3 * (seed % 7) / 6)
        adj = set_adjacency(g)
        for x in range(g.n):
            for y in range(g.n):
                if x == y:
                    continue
                for first in (BLUE, RED):
                    for last in (BLUE, RED):
                        got = ac.exists_alternating_path(g, x, y, first, last)
                        assert got == ref_alternating_path(adj, x, y, first, last)
                        answers += 1
    assert answers > 300_000


def test_path_search_is_not_recursive():
    # the 1200-vertex alternating cycle: the red-first (0, 1)-path goes all
    # the way round, 1199 edges deep
    g = ac.empty(1200)
    ring(g, 0, 600)
    p = ac.exists_alternating_path(g, 0, 1, RED, RED)
    assert p is not None and p.holds_in(g)
    assert p.vertices == (0, *range(1199, 0, -1))
    with pytest.raises(OutOfRangeError):
        ac.exists_alternating_path(g, 0, 1200, RED, RED)


def test_witness_table_stays_within_its_memory_bound():
    # the input of test_cli's deep search: (0, 1)'s red-first path runs
    # through all 1200 vertices and fills the table with its 719,400 subpaths
    n = 1200
    g = ac.empty(n)
    for i in range(1, n):
        g.add_edge(i, (i + 1) % n, BLUE if i % 2 == 0 else RED)
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        w = color_connectivity_witness(g)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()
    assert (w.x, w.y, w.existence[(RED, RED)]) == (0, 1, True)
    # the table's n*n/4 bytes, plus per vertex its four ints' headers and
    # the search's stack. Rows of n bits each, not n - a - 1, peak near 530 KB
    assert peak < n * n // 4 + 100 * n
