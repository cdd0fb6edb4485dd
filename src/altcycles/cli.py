"""Command-line front end: predicate checks, solving, factors, generators,
oracles, and DOT export."""
from __future__ import annotations

import argparse
import os
import sys

from . import generate, oracles
from .cycles import AltCycle
from .factor import find_alternating_cycle_factor, find_factor_without_two_cycles
from .graph import BLUE, MAX_VERTICES, ColoredMultigraph, ParseError, parse_text, serialize_text
from .merge import (
    HamiltonianCycle,
    NoFactor,
    NotColorConnected,
    StructureViolation,
    solve_hamiltonian,
)
from .predicates import (
    TwoPath,
    closed_alternating_witness,
    color_connectivity_witness,
    open_two_paths,
)

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_NO_FACTOR = 2
EXIT_NOT_COLOR_CONNECTED = 3
EXIT_NOT_2M_CLOSED = 4
EXIT_USAGE = 64
EXIT_PARSE = 65
EXIT_SOFTWARE = 70
EXIT_IO = 74

class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 64, not argparse's 2
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _usage_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_USAGE


def _read_graph(path: str) -> ColoredMultigraph:
    """Parse the graph at `path` (`-` for stdin), decoded strictly as UTF-8."""
    try:
        if path == "-":
            data = sys.stdin.buffer.read()
        else:
            with open(path, "rb") as f:
                data = f.read()
    except OSError as exc:
        raise SystemExit(_usage_error(str(exc))) from None
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        print(f"parse error: input is not UTF-8 text ({exc.reason})", file=sys.stderr)
        raise SystemExit(EXIT_PARSE) from None
    return parse_text(text)


def _cycle_line(cycle: AltCycle) -> str:
    verts = " ".join(str(v) for v in cycle.vertices)
    cols = " ".join(c.value for c in cycle.colors)
    return f"cycle {verts} : {cols}"


def export_dot(g: ColoredMultigraph) -> str:
    """Undirected DOT; blue edges solid, red edges dashed."""
    lines = ["graph g {"]
    for v in range(g.n):
        lines.append(f"  {v};")
    for u, v, color in g.edges():
        style = "solid" if color is BLUE else "dashed"
        name = "blue" if color is BLUE else "red"
        lines.append(f"  {u} -- {v} [color={name}, style={style}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _two_path_witness(w: TwoPath) -> str:
    return f"witness 2path {w.x1} {w.x2} {w.x3}"


# predicate name -> (witness of failure or None, witness line)
_CHECKS = {
    "2m-closed": (lambda g: next(open_two_paths(g, mono=True), None), _two_path_witness),
    "2nm-closed": (lambda g: next(open_two_paths(g, mono=False), None), _two_path_witness),
    "closed-alternating": (
        closed_alternating_witness,
        lambda w: f"witness 3path {w[0]} {w[1]} {w[2]} {w[3]}",
    ),
    "color-connected": (
        color_connectivity_witness,
        lambda w: f"witness pair {w.x} {w.y}",
    ),
}


def _cmd_check(args) -> int:
    g = _read_graph(args.file)
    find_witness, witness_line = _CHECKS[args.predicate]
    w = find_witness(g)
    if w is None:
        print("true")
        return EXIT_OK
    print("false")
    print(witness_line(w))
    return EXIT_FALSE


def _cmd_solve(args) -> int:
    g = _read_graph(args.file)
    trace: list[str] | None = [] if args.trace else None
    result = solve_hamiltonian(g, trace)
    if trace:
        for line in trace:
            print(line)
    if isinstance(result, HamiltonianCycle):
        print("hamiltonian")
        print(_cycle_line(result.cycle))
        return EXIT_OK
    if isinstance(result, NoFactor):
        print("no-factor")
        return EXIT_NO_FACTOR
    if isinstance(result, NotColorConnected):
        cert = result.certificate
        print("not-color-connected")
        print(
            f"certificate {cert.vertex} {cert.start_color.value} {cert.target}"
        )
        return EXIT_NOT_COLOR_CONNECTED
    print("not-2m-closed")
    print(_two_path_witness(result.witness))
    return EXIT_NOT_2M_CLOSED


def _print_cycles(cycles: tuple[AltCycle, ...] | None) -> int:
    if cycles is None:
        print("none")
        return EXIT_FALSE
    for cycle in cycles:
        print(_cycle_line(cycle))
    return EXIT_OK


def _cmd_factor(args) -> int:
    g = _read_graph(args.file)
    factor = find_alternating_cycle_factor(g)
    # no factor means no 2-cycle-free one; past a 2-cycle, the exhaustive
    # search runs only when the fallback fails, which proves nothing
    if args.min_cycle_len == 4 and factor and any(len(c) == 2 for c in factor):
        factor = find_factor_without_two_cycles(g) or oracles.oracle_factor(
            g, allow_two_cycles=False
        )
    return _print_cycles(factor)


def _cmd_generate(args) -> int:
    counterexample = args.family == "counterexample"
    size, name = (2 * (args.k1 + args.k2), "2 * (k1 + k2)") if counterexample else (args.n, "--n")
    if size > MAX_VERTICES:  # the output must parse; the generators check the rest
        return _usage_error(f"need {name} <= {MAX_VERTICES}")
    try:
        if counterexample:
            g = generate.gen_counterexample(args.k1, args.k2)
        elif args.family == "complete-random":
            g = generate.gen_complete(args.n, args.seed)
        else:
            g = generate.gen_random(args.n, args.seed, args.density)
    except ValueError as exc:
        return _usage_error(str(exc))
    if args.family == "closure-2m":
        g = generate.closure_2m(g, args.seed, args.color)
    sys.stdout.write(serialize_text(g))
    return EXIT_OK


def _cmd_oracle(args) -> int:
    g = _read_graph(args.file)
    if args.kind == "hamiltonian":
        cycle = oracles.oracle_hamiltonian(g)
        return _print_cycles(None if cycle is None else (cycle,))
    return _print_cycles(oracles.oracle_factor(g))


def _cmd_export_dot(args) -> int:
    g = _read_graph(args.file)
    sys.stdout.write(export_dot(g))
    return EXIT_OK


def _build_parser() -> _Parser:
    parser = _Parser(prog="altcycles")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="decide a structural predicate")
    p.add_argument(
        "--predicate",
        required=True,
        choices=list(_CHECKS),
    )
    p.add_argument("file")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("solve", help="alternating Hamiltonian cycle or refutation")
    p.add_argument("file")
    p.add_argument("--trace", action="store_true")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("factor", help="alternating cycle factor")
    p.add_argument("file")
    p.add_argument("--min-cycle-len", type=int, default=2, choices=[2, 4])
    p.set_defaults(func=_cmd_factor)

    p = sub.add_parser("generate", help="emit a generated instance")
    p.add_argument(
        "--family",
        required=True,
        choices=["complete-random", "closure-2m", "counterexample"],
    )
    p.add_argument("--n", type=int, default=6)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--density", type=float, default=0.5)
    p.add_argument("--color", default="random", choices=["B", "R", "random"])
    p.add_argument("--k1", type=int, default=2)
    p.add_argument("--k2", type=int, default=2)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("oracle", help="exhaustive ground-truth solvers")
    p.add_argument("kind", choices=["hamiltonian", "factor"])
    p.add_argument("file")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("export-dot", help="DOT output, blue solid / red dashed")
    p.add_argument("file")
    p.set_defaults(func=_cmd_export_dot)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, inside the try
        return code
    except BrokenPipeError:  # the reader closed stdout early, as `| head` does
        # point stdout at devnull, so that the flush at exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_IO
    except SystemExit as exc:  # usage errors and unreadable input
        return exc.code if exc.code is not None else EXIT_USAGE
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except generate.ConstructionFailed as exc:
        print(f"construction failed: {exc}", file=sys.stderr)
        return EXIT_FALSE
    except StructureViolation as exc:  # the solver broke one of its own guarantees
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOFTWARE
    except RecursionError:  # the recursive oracles on a long search path
        print("error: exhaustive search exceeded the recursion limit", file=sys.stderr)
        return EXIT_SOFTWARE


if __name__ == "__main__":
    raise SystemExit(main())
