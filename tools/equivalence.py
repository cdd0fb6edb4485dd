"""Digest the library's outputs on a fixed corpus, so that a refactor can
show it keeps them.

    python tools/equivalence.py digest ROOT
    python tools/equivalence.py compare A B

`digest` imports `altcycles` from ROOT/src and runs it on the corpus below,
built by the generators in this repository's `tests/` (`bench/` is read
only through `conftest.bench_module`). It writes one tab-separated line per
entry: the entry's id, a short outcome label (the result's type name, or
the error's type and message) and a sha256 over the call's input, its
normalized result, its trace and any `MergeError`'s type, message and
offenders. `Merged.rule` is left out of the result, so checkouts from
before verdicts named their rule still compare; the solver traces carry
the rule. A graph result is hashed as its text serialization.

`compare` digests both checkouts, in two processes at once, lists the
entries whose digests differ or that only one side has, with both sides'
labels, and exits 1 if there is any.

The corpus, 39,210 entries:
- planted seeds 0-5999 through `solve_from_factor`, in both cycle orders,
  and through `solve_hamiltonian`;
- `merge_pair` both ways on the planted cycle pairs of seeds 0-1499;
- the benchmark's solve-corpus pools of seeds 1-3, through
  `solve_hamiltonian` and `find_alternating_cycle_factor`, and those with
  n <= 10 through `oracle_factor(g, allow_two_cycles=False)`; its
  color-connected pools of seeds 1-3, through `color_connectivity_witness`;
- `gen_counterexample(k1, k2)` for 2 <= k1 <= k2 <= 5 and for
  6 <= k1 <= k2 <= 8, and `gen_random(13 + s % 8, s, 0.3)` for s 0-19,
  through `color_connectivity_witness`;
- `gen_complete` for even n 4-80 and seeds 0-2, through
  `solve_hamiltonian`;
- 3000 graphs `closure_2m(gen_random(4 + s % 11, s, 0.3), s)`, likewise;
- `gen_random(2 + s % 40, s, 0.05 + 0.5 * (s % 10) / 9)` for s 0-999,
  through the full `two_m_violations` and `two_nm_violations` lists and
  `closed_alternating_witness`, and the `closure_2m(g, s)` of those with
  n <= 20 through `closed_alternating_witness`;
- `closure_2m(gen_random(16, s, 0.1), s)` for s 0-99, the closure
  benchmark's shape;
- the 96 two-square colorings that once raised, in both cycle orders;
- the fixtures G8, G8b and G12 on their factors.
"""
from __future__ import annotations

import argparse
import hashlib
import subprocess
import sys
import time
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
    """(id, function, args) per corpus entry; each function takes a trace
    list after its args."""

    def merge(g, c1, c2, trace):
        return ac.merge_pair(g, c1, c2)

    def witness(g, trace):
        return ac.predicates.color_connectivity_witness(g)

    def factor(g, trace):
        return _cycles(ac.find_alternating_cycle_factor(g))

    def oracle_factor(g, trace):
        return _cycles(ac.oracle_factor(g, allow_two_cycles=False))

    def two_m(g, trace):
        return ac.two_m_violations(g)

    def two_nm(g, trace):
        return ac.two_nm_violations(g)

    def closed_alternating(g, trace):
        return ac.predicates.closed_alternating_witness(g)

    def closure(g, seed, trace):
        return ac.closure_2m(g, seed)

    solve, from_factor = ac.solve_hamiltonian, ac.solve_from_factor
    for seed in range(6000):
        g, cycles = fx.planted_instance(seed)
        yield f"planted {seed} forward", from_factor, (g, cycles)
        yield f"planted {seed} reversed", from_factor, (g, cycles[::-1])
        yield f"planted {seed} solve", solve, (g,)
        if seed < 1500:
            for i, c1 in enumerate(cycles):
                for j, c2 in enumerate(cycles):
                    if i != j:
                        yield f"merge-pair {seed} {i} {j}", merge, (g, c1, c2)
    for seed in (1, 2, 3):
        for k, g in enumerate(fx.solve_corpus_graphs(seed)):
            yield f"solve-corpus {seed} {k}", solve, (g,)
            yield f"factor {seed} {k}", factor, (g,)
            if g.n <= 10:
                yield f"oracle-factor {seed} {k}", oracle_factor, (g,)
        for k, g in enumerate(fx.color_connected_graphs(seed)):
            yield f"color-connected {seed} {k}", witness, (g,)
    for lo, hi in ((2, 5), (6, 8)):
        for k1 in range(lo, hi + 1):
            for k2 in range(k1, hi + 1):
                yield f"counterexample {k1} {k2}", witness, (ac.gen_counterexample(k1, k2),)
    for s in range(20):
        yield f"random-witness {s}", witness, (ac.gen_random(13 + s % 8, s, 0.3),)
    for n in range(4, 81, 2):
        for seed in range(3):
            yield f"complete {n} {seed}", solve, (ac.gen_complete(n, seed),)
    for s in range(3000):
        yield f"closure {s}", solve, (ac.closure_2m(ac.gen_random(4 + s % 11, s, 0.3), s),)
    for s in range(1000):
        g = ac.gen_random(2 + s % 40, s, 0.05 + 0.5 * (s % 10) / 9)
        yield f"two-m {s}", two_m, (g,)
        yield f"two-nm {s}", two_nm, (g,)
        yield f"closed-alternating {s}", closed_alternating, (g,)
        if g.n <= 20:
            yield f"closed-alternating closure {s}", closed_alternating, (ac.closure_2m(g, s),)
    for s in range(100):
        yield f"closure-2m {s}", closure, (ac.gen_random(16, s, 0.1), s)
    for first in (ac.BLUE, ac.RED):
        for code in (*fx.ONE_ORDER_CODES[first], *fx.BOTH_ORDER_CODES[first]):
            g, a, b = fx.two_square_coloring(code, first)
            yield f"two-square {first.value} {code} ab", from_factor, (g, [a, b])
            yield f"two-square {first.value} {code} ba", from_factor, (g, [b, a])
    for name in ("G8", "G8b", "G12"):
        g, cycles = getattr(fx, name)()
        yield f"fixture {name}", from_factor, (g, cycles)


def _cycles(factor):
    """A factor as a tuple of cycles; older checkouts return a `CycleFactor`,
    which iterates over its cycles."""
    return None if factor is None else tuple(factor)


def digest(root: Path) -> list[tuple[str, str, str]]:
    """(id, outcome label, sha256) per corpus entry."""
    ac, fx = _load(root)
    out = []
    for key, fn, args in entries(ac, fx):
        trace: list[str] = []
        try:
            result, error = fn(*args, trace), None
            label = type(result).__name__
            if isinstance(result, ac.Merged):  # leave out `rule`
                result = ("Merged", result.cycle)
            elif isinstance(result, ac.ColoredMultigraph):
                result = ac.serialize_text(result)
        except ac.merge.MergeError as exc:
            result = None
            error = (type(exc).__name__, str(exc), repr(getattr(exc, "offenders", None)))
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
