from __future__ import annotations

import random
import re
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, strategies as st

import altcycles as ac
from altcycles import BLUE, RED
from altcycles.graph import (
    MAX_VERTICES,
    Color,
    LoopError,
    OutOfRangeError,
    ParseError,
    reachable,
)


def test_color_other_and_letters():
    assert BLUE.other is RED
    assert RED.other is BLUE
    assert Color.from_letter("B") is BLUE
    assert Color.from_letter("R") is RED
    with pytest.raises(ValueError):
        Color.from_letter("G")


def test_add_edge_basic():
    g = ac.empty(3)
    assert g.add_edge(0, 1, BLUE) is g
    assert g.has_edge_color(0, 1, BLUE)
    assert g.has_edge_color(1, 0, BLUE)
    assert not g.has_edge_color(0, 1, RED)
    g.add_edge(1, 0, RED)
    assert g.has_edge_color(0, 1, BLUE) and g.has_edge_color(0, 1, RED)
    assert g.edge_count() == 2


def test_add_edge_idempotent():
    g = ac.empty(2)
    g.add_edge(0, 1, BLUE)
    g.add_edge(0, 1, BLUE)
    assert g.edge_count() == 1


def test_add_edge_rejects_loops_and_bad_vertices():
    g = ac.empty(2)
    with pytest.raises(LoopError):
        g.add_edge(0, 0, BLUE)
    with pytest.raises(OutOfRangeError):
        g.add_edge(0, 2, BLUE)
    with pytest.raises(OutOfRangeError):
        g.add_edge(-1, 0, RED)


def test_check_vertices_names_the_first_offender():
    g = ac.empty(4)
    g.check_vertices()
    g.check_vertices(0, 3, 3)
    for vertices, named in (((0, -1, 4), -1), ((4, -1), 4), ((3, 0, 4), 4)):
        with pytest.raises(OutOfRangeError, match=rf"^vertex {named} outside 0\.\.3$"):
            g.check_vertices(*vertices)


def test_has_walk_is_total():
    g = ac.empty(4)
    g.add_edge(0, 1, BLUE).add_edge(1, 2, RED).add_edge(2, 3, BLUE)
    assert g.has_walk((0, 1, 2, 3), (BLUE, RED, BLUE))
    assert g.has_walk((2, 1, 0), (RED, BLUE))
    assert g.has_walk((3,), ())
    assert not g.has_walk((0, 1, 2), (BLUE, BLUE))  # wrong color
    assert not g.has_walk((0, 2), (BLUE,))  # missing edge
    assert not g.has_walk((1, 1), (BLUE,))  # a repeated vertex is a loop
    for bad in (-1, 4):  # outside 0..3: False, never OutOfRangeError
        assert not g.has_walk((0, bad), (BLUE,))
        assert not g.has_walk((bad, 0), (RED,))
    # one color per consecutive pair, no more, no fewer
    assert not g.has_walk((0, 1, 2), (BLUE,))
    assert not g.has_walk((0, 1), (BLUE, RED))
    assert not g.has_walk((), ())


def test_edges_sorted():
    g = ac.empty(3)
    g.add_edge(2, 1, RED).add_edge(1, 0, BLUE).add_edge(1, 2, BLUE)
    assert g.edges() == [(0, 1, BLUE), (1, 2, BLUE), (1, 2, RED)]


def test_copy_and_eq():
    g = ac.empty(3)
    g.add_edge(0, 1, BLUE)
    h = g.copy()
    assert g == h
    h.add_edge(1, 2, RED)
    assert g != h
    assert g != ac.empty(4)


def test_parse_text():
    text = "# comment\nn 3\ne 0 1 B\n\ne 1 2 R\n"
    g = ac.parse_text(text)
    assert g.n == 3
    assert g.has_edge_color(0, 1, BLUE)
    assert g.has_edge_color(1, 2, RED)


@pytest.mark.parametrize(
    "text",
    [
        "e 0 1 B\n",  # edge before header
        "n x\n",
        "n 2\ne 0 1 G\n",
        "n 2\ne 0 5 B\n",
        "n 2\ne 0 0 B\n",
        "n 2\nq 0 1\n",
        "n 2\ne 0 B\n",
        f"n {MAX_VERTICES + 1}\n",  # rejected before any allocation
        "n 100001\n",  # the former limit + 1: far above the limit
        "n \uff13\n",  # int() alone takes other scripts' digits and `_`
        "n 1_0\n",
        "n 12\ne 0 1_0 B\n",
        "n 3\ne 0 \u0662 B\n",
    ],
)
def test_parse_errors(text):
    with pytest.raises(ParseError):
        ac.parse_text(text)


def test_mask_memory_at_vertex_limit():
    # the widest masks per byte of input: every vertex joined to the last
    # one in both colors, so n - 1 masks are n bits wide
    n = MAX_VERTICES
    text = f"n {n}\n" + "".join(f"e {v} {n - 1} B\ne {v} {n - 1} R\n" for v in range(n - 1))
    tracemalloc.start()
    try:
        g = ac.parse_text(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert g.edge_count() == 2 * (n - 1)
    assert peak < 40 * 2**20


def test_parse_error_reports_line():
    with pytest.raises(ParseError) as exc:
        ac.parse_text("n 2\ne 0 1 B\ne 0 1 X\n")
    assert exc.value.line_no == 3


# every line boundary of `str.splitlines` that is not \n, \r\n or \r
OTHER_LINE_BREAKS = "\v\f\x1c\x1d\x1e\x85\u2028\u2029"


@pytest.mark.parametrize("brk", OTHER_LINE_BREAKS)
def test_comment_runs_to_end_of_line(brk):
    g = ac.parse_text(f"n 2\n# see{brk}e 0 1 B\n")
    assert g.n == 2 and g.edge_count() == 0
    assert ac.parse_text(f"n 2\ne 0{brk}1 B{brk}\n").has_edge_color(0, 1, BLUE)
    # line numbers count \n, \r\n and \r only
    with pytest.raises(ParseError) as exc:
        ac.parse_text(f"n 2\r\n# a{brk}b\re 0 1 B\ne 0 9 B\n")
    assert exc.value.line_no == 4
    with pytest.raises(ParseError) as exc:
        ac.parse_text(f"# a{brk}b\n\n")
    assert str(exc.value) == "line 2: missing 'n' record"


def ref_parse_text(text):
    """Reference parser: a plain per-line reading of the format through
    `Color.from_letter` and `add_edge`. It splits lines with
    `str.splitlines`, so it agrees with `parse_text` only on texts without
    the line breaks that `str.splitlines` alone knows."""
    g = None
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
            g = ac.empty(count)
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


def random_record_text(rng):
    """Valid edge-list text with comments, blank lines, tabs, `+1` vertices
    and mixed line endings; half the texts then get one faulty record (or
    lose their `n` record) at a random place."""
    n = rng.randint(2, 7)
    ws = lambda: rng.choice((" ", "  ", "\t", " \t "))
    filler = ("", " ", "\t", "#", "# e 0 1 B", "  # n 3")
    lines = [rng.choice(filler) for _ in range(rng.randint(0, 2))] + [f"n{ws()}{n}"]
    for _ in range(rng.randint(0, 12)):
        if rng.random() < 0.2:
            lines.append(rng.choice(filler))
            continue
        u, v = rng.sample(range(n), 2)
        line = ws().join(("e", rng.choice(("", "+")) + str(u), str(v), rng.choice("BR")))
        lines.append(line + rng.choice(("", "", "", "#", " # note", "#x")))
    if rng.random() < 0.5:
        u = rng.randrange(n)
        fault = rng.choice(
            (
                f"e {u} {n} B",  # out of range
                f"e -1 {u} R",
                f"e {u} {u} B",  # loop
                f"e {u} x R",
                f"e 1.0 {u} B",
                f"e 0 1 {rng.choice(('G', 'b', 'BR', 'r'))}",
                "e 0 1",  # arity
                "e 0 1 B B",
                "e",
                f"n {n}",  # duplicate
                "n",
                "n -1",
                "n two",
                f"n {MAX_VERTICES + 1}",
                "q 0 1",  # unknown record
                "E 0 1 B",
                "ee 0 1 B",
                "drop n",  # the first edge comes before any 'n'
                "comments only",  # no record at all
            )
        )
        if fault == "drop n":
            lines = [line for line in lines if not line.startswith("n")]
        elif fault == "comments only":
            lines = [rng.choice(filler) for _ in lines]
        else:
            lines.insert(rng.randint(0, len(lines)), fault)
    ends = rng.choice(("\n", "\r\n", "\r", None))
    text = "".join(line + (ends or rng.choice(("\n", "\r\n", "\r"))) for line in lines)
    return text if rng.random() < 0.8 else text.rstrip("\r\n")


def test_parse_matches_reference():
    rng = random.Random(8)
    outcomes = Counter()
    for _ in range(4000):
        text = random_record_text(rng)
        try:
            want = ref_parse_text(text)
        except ParseError as exc:
            with pytest.raises(ParseError) as got:
                ac.parse_text(text)
            assert (str(got.value), got.value.line_no) == (str(exc), exc.line_no), text
            outcomes[re.sub(r"-?\d+|'[^'<]*'$", "#", str(exc).split(": ", 1)[1])] += 1
        else:
            assert ac.parse_text(text) == want, text
            outcomes["graph"] += 1
    # a graph and each of the 13 parse errors, in 10 texts or more
    assert len(outcomes) == 14 and min(outcomes.values()) >= 10, outcomes
    assert outcomes["graph"] > 1500


@given(
    n=st.integers(min_value=0, max_value=8),
    picks=st.lists(
        st.tuples(st.integers(0, 7), st.integers(0, 7), st.booleans()),
        max_size=20,
    ),
)
def test_serialize_parse_roundtrip(n, picks):
    g = ac.empty(n)
    for u, v, blue in picks:
        if u != v and u < n and v < n:
            g.add_edge(u, v, BLUE if blue else RED)
    assert ac.parse_text(ac.serialize_text(g)) == g


def test_serialize_deterministic():
    g = ac.empty(3)
    g.add_edge(2, 0, RED).add_edge(0, 1, BLUE).add_edge(0, 2, BLUE)
    h = ac.empty(3)
    h.add_edge(0, 1, BLUE).add_edge(0, 2, BLUE).add_edge(0, 2, RED)
    assert ac.serialize_text(g) == ac.serialize_text(h)


def test_reachable_in_one_color_or_both():
    g = ac.empty(6)
    g.add_edge(0, 1, BLUE).add_edge(1, 2, RED).add_edge(2, 3, BLUE).add_edge(3, 4, RED)
    assert reachable(g, 0) == 0b11111
    assert reachable(g, 0, avoid=0b100) == 0b11
    assert reachable(g, 0, color=BLUE) == 0b11
    assert reachable(g, 3, color=BLUE) == 0b1100
    assert reachable(g, 1, color=RED) == 0b110
    assert reachable(g, 5, color=RED) == 0b100000
