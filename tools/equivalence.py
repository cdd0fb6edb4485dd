"""Digest the library's outputs on a fixed corpus, so that a refactor can
show it keeps them.

    python tools/equivalence.py digest ROOT
    python tools/equivalence.py compare A B

`digest` imports `altcycles` from ROOT/src and runs it on the corpus below,
built by the generators in this repository's `tests/` (`bench/` is read
only through `conftest.bench_module`). It writes one tab-separated line per
entry: the entry's id, a short outcome label (the result's type name, or
the error's type and message) and a sha256 over the call's input, its
normalized result, its trace and any `StructureViolation`'s type, message
and offenders. A graph result is hashed as its text serialization.

`compare` digests both checkouts, in two processes at once, lists the
entries whose digests differ or that only one side has, with both sides'
labels, and exits 1 if there is any.

The corpus, 67,548 entries:
- planted seeds 0-5999 through `solve_from_factor`, in both cycle orders,
  and through `solve_hamiltonian`;
- seeds 0-1499 of those through `oracle_hamiltonian`, and `merge_pair`
  and `oracle_merge` both ways on their planted cycle pairs;
- the benchmark's solve-corpus pools of seeds 1-3, through
  `solve_hamiltonian`, `find_alternating_cycle_factor` and
  `find_factor_without_two_cycles` (the CLI's `--min-cycle-len 4`
  fallback), and those with n <= 10 through `oracle_hamiltonian`,
  `oracle_factor(g)` and `oracle_factor(g, allow_two_cycles=False)`; its
  color-connected pools of seeds 1-3, through `color_connectivity_witness`;
- `gen_counterexample(k1, k2)` for 2 <= k1 <= k2 <= 5, for
  6 <= k1 <= k2 <= 8 and for 9 <= k1 <= k2 <= 12, and
  `gen_random(13 + s % 8, s, 0.3)` for s 0-19, through
  `color_connectivity_witness`; `gen_counterexample(3, 3)` and `(4, 4)`
  through `exists_alternating_path` on every ordered pair and end color
  pair;
- `gen_complete(n, s)` plus a vertex n joined in blue to every other
  vertex (blue apex) or to vertex 1 alone (pendant), for n 4-12 and s 0-2,
  through `color_connectivity_witness`, and those with n <= 8 through
  `exists_alternating_path` on every ordered pair and end color pair;
- `gate_gadget(m, 1, gate_first)`, a 5-vertex gadget hung off
  `gen_complete(m, 1)`, for m 9-13 gate-first and m 9-11 target-first
  through `color_connectivity_witness` (from m = 9 on, the witness pair is
  the gadget's own (0, m)), and both m = 9 instances through
  `exists_alternating_path` on every ordered pair and end color pair;
- `gen_complete` for even n 4-80 and seeds 0-2, through
  `solve_hamiltonian`;
- 3000 graphs `closure_2m(gen_random(4 + s % 11, s, 0.3), s)`, likewise,
  and `oracle_merge` both ways on the cycle pairs of the
  `find_alternating_cycle_factor` of those with s < 1500;
- `gen_random(2 + s % 40, s, 0.05 + 0.5 * (s % 10) / 9)` for s 0-999,
  through the full `two_m_violations` and `two_nm_violations` lists,
  `is_2m_closed`, `is_2nm_closed` and `closed_alternating_witness`, and
  the `closure_2m(g, s)` of those with n <= 20 through
  `closed_alternating_witness`;
- `hub_shape` stars in both colors and mixed, and both-colored K_{3,n-3},
  for n 4-40, with no extra edges and with 3 from seed n, through
  `closed_alternating_witness`, those with n <= 30 through
  `color_connectivity_witness`, and those with n <= 8 through
  `exists_alternating_path` on every ordered pair and end color pair;
- `closure_2m(gen_random(16, s, 0.1), s)` for s 0-99, the closure
  benchmark's shape;
- the 96 two-square colorings that once raised, in both cycle orders;
- the fixtures G8, G8b and G12 on their factors;
- five tiny graphs (n 0, 1 and 2 without edges, a blue edge, and a pair
  joined in both colors) through `solve_hamiltonian`, both factor finders,
  `oracle_factor` with both flag values, `color_connectivity_witness`,
  `closed_alternating_witness`, the `two_m_violations` and
  `two_nm_violations` lists and `closure_2m`.
"""
from __future__ import annotations

import argparse
import hashlib
import subprocess
import sys
import time
from itertools import permutations, product
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]


def _load(root: Path):
    """`altcycles` from root/src and the test generators from this repo."""
    src = (root / "src").resolve()
    sys.path[:0] = [str(src), str(REPO / "tests")]
    import altcycles
    import conftest

    if Path(altcycles.__file__).resolve().parent != src / "altcycles":
        raise SystemExit(f"altcycles was imported from {altcycles.__file__}, not {src}")
    return altcycles, conftest


def entries(ac, fx):
    """(id, function, args) per corpus entry: the library's own functions,
    but for the `oracle_factor` adapter, whose flag is keyword-only."""

    def oracle_factor(g, allow_two_cycles):
        return ac.oracle_factor(g, allow_two_cycles=allow_two_cycles)

    merge, oracle_merge, factor = ac.merge_pair, ac.oracle_merge, ac.find_alternating_cycle_factor
    hamiltonian = ac.oracle_hamiltonian
    witness = ac.predicates.color_connectivity_witness
    closed_alternating = ac.predicates.closed_alternating_witness
    solve, from_factor = ac.solve_hamiltonian, ac.solve_from_factor
    without_two_cycles = ac.find_factor_without_two_cycles
    for seed in range(6000):
        g, cycles = fx.planted_instance(seed)
        yield f"planted {seed} forward", from_factor, (g, cycles)
        yield f"planted {seed} reversed", from_factor, (g, cycles[::-1])
        yield f"planted {seed} solve", solve, (g,)
        if seed < 1500:
            yield f"oracle-hamiltonian planted {seed}", hamiltonian, (g,)
            for i, j, c1, c2 in _ordered_pairs(cycles):
                yield f"merge-pair {seed} {i} {j}", merge, (g, c1, c2)
                yield f"oracle-merge {seed} {i} {j}", oracle_merge, (g, c1, c2)
    for seed in (1, 2, 3):
        for k, g in enumerate(fx.solve_corpus_graphs(seed)):
            yield f"solve-corpus {seed} {k}", solve, (g,)
            yield f"factor {seed} {k}", factor, (g,)
            yield f"factor without 2-cycles {seed} {k}", without_two_cycles, (g,)
            if g.n <= 10:
                yield f"oracle-hamiltonian {seed} {k}", hamiltonian, (g,)
                yield f"oracle-factor {seed} {k}", oracle_factor, (g, False)
                yield f"oracle-factor 2-cycles {seed} {k}", oracle_factor, (g, True)
        for k, g in enumerate(fx.color_connected_graphs(seed)):
            yield f"color-connected {seed} {k}", witness, (g,)
    for lo, hi in ((2, 5), (6, 8), (9, 12)):
        for k1 in range(lo, hi + 1):
            for k2 in range(k1, hi + 1):
                yield f"counterexample {k1} {k2}", witness, (ac.gen_counterexample(k1, k2),)
    for k in (3, 4):
        g = ac.gen_counterexample(k, k)
        for (x, y), first, last in product(permutations(range(g.n), 2), ac.Color, ac.Color):
            key = f"counterexample {k} {k} path {x} {y} {first.value}{last.value}"
            yield key, ac.exists_alternating_path, (g, x, y, first, last)
    for s in range(20):
        yield f"random-witness {s}", witness, (ac.gen_random(13 + s % 8, s, 0.3),)
    for name, neighbors in (("blue-apex", None), ("pendant", (1,))):
        for n in range(4, 13):
            for seed in range(3):
                g = fx.blue_apex(n, seed, neighbors)
                yield f"{name} {n} {seed}", witness, (g,)
                if n <= 8:
                    ends = permutations(range(g.n), 2)
                    for (x, y), first, last in product(ends, ac.Color, ac.Color):
                        key = f"{name} {n} {seed} path {x} {y} {first.value}{last.value}"
                        yield key, ac.exists_alternating_path, (g, x, y, first, last)
    for name, gate_first, top in (("gate-first", True, 13), ("target-first", False, 11)):
        for m in range(9, top + 1):
            g = fx.gate_gadget(m, 1, gate_first)
            yield f"{name} {m}", witness, (g,)
            if m == 9:
                ends = permutations(range(g.n), 2)
                for (x, y), first, last in product(ends, ac.Color, ac.Color):
                    key = f"{name} {m} path {x} {y} {first.value}{last.value}"
                    yield key, ac.exists_alternating_path, (g, x, y, first, last)
    for n in range(4, 81, 2):
        for seed in range(3):
            yield f"complete {n} {seed}", solve, (ac.gen_complete(n, seed),)
    for s in range(3000):
        g = ac.closure_2m(ac.gen_random(4 + s % 11, s, 0.3), s)
        yield f"closure {s}", solve, (g,)
        if s < 1500:
            for i, j, c1, c2 in _ordered_pairs(ac.find_alternating_cycle_factor(g) or ()):
                yield f"oracle-merge closure {s} {i} {j}", oracle_merge, (g, c1, c2)
    for s in range(1000):
        g = ac.gen_random(2 + s % 40, s, 0.05 + 0.5 * (s % 10) / 9)
        yield f"two-m {s}", ac.two_m_violations, (g,)
        yield f"two-nm {s}", ac.two_nm_violations, (g,)
        yield f"is-2m-closed {s}", ac.is_2m_closed, (g,)
        yield f"is-2nm-closed {s}", ac.is_2nm_closed, (g,)
        yield f"closed-alternating {s}", closed_alternating, (g,)
        if g.n <= 20:
            yield f"closed-alternating closure {s}", closed_alternating, (ac.closure_2m(g, s),)
    for shape, n, extra in product(("star", "mixed-star", "k3"), range(4, 41), (0, 3)):
        g = fx.hub_shape(shape, n, n, extra)
        yield f"closed-alternating {shape} {n} extra {extra}", closed_alternating, (g,)
        if n <= 30:
            yield f"color-connected {shape} {n} extra {extra}", witness, (g,)
        if n <= 8:
            for (x, y), first, last in product(permutations(range(n), 2), ac.Color, ac.Color):
                key = f"{shape} {n} extra {extra} path {x} {y} {first.value}{last.value}"
                yield key, ac.exists_alternating_path, (g, x, y, first, last)
    for s in range(100):
        yield f"closure-2m {s}", ac.closure_2m, (ac.gen_random(16, s, 0.1), s)
    for first in (ac.BLUE, ac.RED):
        for code in (*fx.ONE_ORDER_CODES[first], *fx.BOTH_ORDER_CODES[first]):
            g, a, b = fx.two_square_coloring(code, first)
            yield f"two-square {first.value} {code} ab", from_factor, (g, [a, b])
            yield f"two-square {first.value} {code} ba", from_factor, (g, [b, a])
    for name in ("G8", "G8b", "G12"):
        g, cycles = getattr(fx, name)()
        yield f"fixture {name}", from_factor, (g, cycles)
    tiny = {
        "n 0": "n 0",
        "n 1": "n 1",
        "n 2": "n 2",
        "blue edge": "n 2\ne 0 1 B",
        "both colors": "n 2\ne 0 1 B\ne 0 1 R",
    }
    calls = {
        "solve": (solve,),
        "factor": (factor,),
        "factor without 2-cycles": (without_two_cycles,),
        "oracle-factor": (oracle_factor, False),
        "oracle-factor 2-cycles": (oracle_factor, True),
        "color-connected": (witness,),
        "closed-alternating": (closed_alternating,),
        "two-m": (ac.two_m_violations,),
        "two-nm": (ac.two_nm_violations,),
        "closure-2m": (ac.closure_2m,),
    }
    for name, text in tiny.items():
        for call, (fn, *flag) in calls.items():
            yield f"tiny {name} {call}", fn, (ac.parse_text(text), *flag)


def _ordered_pairs(cycles):
    """(i, j, cycles[i], cycles[j]) for every i != j."""
    return [(i, j, a, b) for i, a in enumerate(cycles) for j, b in enumerate(cycles) if i != j]


def digest(root: Path) -> list[tuple[str, str, str]]:
    """(id, outcome label, sha256) per corpus entry."""
    ac, fx = _load(root)
    traced = (ac.solve_hamiltonian, ac.solve_from_factor)
    out = []
    for key, fn, args in entries(ac, fx):
        trace: list[str] = []
        try:
            result, error = fn(*args, trace) if fn in traced else fn(*args), None
            label = type(result).__name__
            if isinstance(result, ac.ColoredMultigraph):
                result = ac.serialize_text(result)
        except ac.merge.StructureViolation as exc:
            result = None
            error = (type(exc).__name__, str(exc), repr(exc.offenders))
            label = f"{error[0]}: {error[1]}"
        given = (ac.serialize_text(args[0]), repr(args[1:]))
        payload = repr((given, result, trace, error)).encode()
        out.append((key, label, hashlib.sha256(payload).hexdigest()))
    return out


def compare(a: Path, b: Path) -> int:
    procs = [
        subprocess.Popen(
            [sys.executable, __file__, "digest", str(root)],
            stdout=subprocess.PIPE,
            text=True,
        )
        for root in (a, b)
    ]
    sides = []
    for root, proc in zip((a, b), procs):
        text, _ = proc.communicate()
        if proc.returncode:
            raise SystemExit(f"digest of {root} failed with exit code {proc.returncode}")
        rows = (line.split("\t") for line in text.splitlines())
        sides.append({key: (h, label) for key, label, h in rows})
    da, db = sides
    keys = list(da) + [k for k in db if k not in da]
    differ = [k for k in keys if k not in da or k not in db or da[k][0] != db[k][0]]
    for k in differ:
        note = "only in A" if k not in db else "only in B" if k not in da else "differs"
        labels = " -> ".join(side[k][1] for side in sides if k in side)
        print(f"{note}: {k} ({labels})")
    print(f"{len(differ)} of {len(keys)} entries differ")
    return 1 if differ else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("digest", help="one sha256 per corpus entry")
    p.add_argument("root", type=Path, help="checkout whose src/ to run")
    p = sub.add_parser("compare", help="list the entries whose digests differ")
    p.add_argument("a", type=Path)
    p.add_argument("b", type=Path)
    args = parser.parse_args(argv)
    if args.command == "compare":
        return compare(args.a, args.b)
    start = time.perf_counter()
    lines = [f"{key}\t{label}\t{h}\n" for key, label, h in digest(args.root)]
    sys.stdout.writelines(lines)
    print(f"{len(lines)} entries in {time.perf_counter() - start:.1f} s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
