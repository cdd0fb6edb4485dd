"""altcycles benchmark: one workload per process, one thread, a closed loop
with one client.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Set-up generates the workload's pool of serialized graphs from the seed and
warms up with one op; it runs five times and `setup_s` is the import time
plus the median set-up. The timed loop then makes whole passes over the
pool, starting another only while it would still end within `--seconds`.
Between ops, at most every 0.05 s, it times a fixed reference kernel
(bench/calibrate.py); every time reported as a metric is scaled by the
kernel's nominal time over its measured time around that work, so that the
figures follow the program and not the shared host's current speed. The
wall-clock figures are printed and recorded beside them.
Each op's result is checked after the loop; an op that raises or gives a
wrong result counts as failed and the run goes on. `--trace 0` reports the
end-to-end metrics, `--trace 1` the per-layer metrics from spans recorded
around the library's internal calls. The last stdout line is one JSON
object; a full record goes to bench/results/. `--workload all` runs every
workload, each in its own process.
"""
from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path

from calibrate import REF_S, Calibrator

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
SETUP_REPEATS = 5
TAIL_BEYOND = 10
WORKLOAD_NAMES = ("solve-dense", "solve-corpus", "closure", "color-connected")
END_TO_END = (
    ("ops_per_s", "1/s"),
    ("op_ms.p50", "ms"),
    ("op_ms.tail", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_library():
    """Import altcycles from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    try:
        import altcycles
    except ImportError as exc:
        sys.exit(f"bench: cannot import altcycles from {SRC}: {exc}")
    if Path(altcycles.__file__).resolve().parent.parent != SRC.resolve():
        sys.exit(f"bench: altcycles resolved to {altcycles.__file__}, not {SRC}")
    import workloads

    return workloads


def input_digest(pool) -> str:
    h = hashlib.sha256()
    for e in pool:
        h.update(f"{e.kind}\0{e.arg}\0{e.text}\0".encode())
    return h.hexdigest()


def set_up(wl, seed: int, clock):
    """Generate the pool and warm up; repeated, with the median scaled and
    wall times kept."""
    scaled, walls, digests, pool = [], [], set(), None
    before = clock.sample()
    for _ in range(SETUP_REPEATS):
        pool = None  # so that peak memory holds one pool, not two
        t0 = time.perf_counter()
        pool = wl.make_pool(seed)
        wl.op(pool[0])
        wall = time.perf_counter() - t0
        after = clock.sample()
        walls.append(wall)
        scaled.append(wall * clock.scale(before, after))
        before = after
        digests.add(input_digest(pool))
    if len(digests) != 1:
        sys.exit("bench: the same seed generated different inputs")
    return pool, digests.pop(), statistics.median(scaled), statistics.median(walls)


def run_passes(wl, pool, seconds: float, tracer=None, clock=None):
    """Whole passes over the pool, each after the first in a new shuffled
    order, so that an input's passes fall at unrelated times. Returns each
    entry's op latencies as (wall, scaled) seconds, one per pass, per-entry
    counters of result summaries, and the pass count."""
    clock = clock or Calibrator()
    walls: list[list[tuple[float, int]]] = [[] for _ in pool]
    outcomes = [Counter() for _ in pool]
    order = list(range(len(pool)))
    shuffle = random.Random(0).shuffle
    before = clock.sample()
    start = time.perf_counter()
    passes = 0
    while True:
        pass_start = time.perf_counter()
        for i in order:
            entry = pool[i]
            if tracer is not None:
                tracer.op = passes * len(pool) + i
            t0 = time.perf_counter()
            try:
                result = wl.op(entry)
            except Exception as exc:  # a failed op, RecursionError included
                summary = ("error", type(exc).__name__, str(exc)[:200])
            else:
                try:
                    summary = wl.summarize(result)
                except Exception as exc:
                    summary = ("error", type(exc).__name__, str(exc)[:200])
            walls[i].append((time.perf_counter() - t0, before))
            outcomes[i][summary] += 1
            before = clock.maybe_sample()
        passes += 1
        now = time.perf_counter()
        if now + (now - pass_start) - start > seconds:
            break
        shuffle(order)
    clock.sample()  # so that every op has a sample after it
    times = [[(w, w * clock.scale(j, j + 1)) for w, j in entry] for entry in walls]
    return times, outcomes, passes


def op_figures(times: list[list[float]], correct: int) -> dict[str, float]:
    """Op metrics from each entry's latencies, one per pass. An entry's
    latency is its median pass; the tail is the highest percentile with ten
    inputs beyond it, taken over the pool and not the op count, so it stays
    put however many passes a run makes."""
    per_input = sorted(statistics.median(t) for t in times)
    timed_s = sum(map(sum, times))
    return {
        "ops_per_s": correct / timed_s,
        "op_ms.p50": statistics.median(per_input) * 1000.0,
        "op_ms.tail": per_input[-TAIL_BEYOND - 1] * 1000.0,
        "timed_s": timed_s,
    }


def check_outcomes(wl, pool, outcomes, graph) -> tuple[int, list[str]]:
    """Verify each distinct result once per entry; returns the number of
    failed ops and a few reasons."""
    failed, reasons = 0, []

    def fail(i, count, why):
        nonlocal failed
        failed += count
        if len(reasons) < 10:
            reasons.append(f"input {i} ({pool[i].kind}, n={pool[i].n}): {why}")

    for i, counter in enumerate(outcomes):
        g = graph.parse_text(pool[i].text)
        if wl.deterministic and len(counter) > 1:
            fail(i, sum(counter.values()), f"{len(counter)} different outputs for one input")
            continue
        try:
            expected = wl.expect(pool[i], g)
        except Exception as exc:
            fail(i, sum(counter.values()), f"reference: {type(exc).__name__}: {exc}")
            continue
        for summary, count in counter.items():
            if summary[0] == "error":
                fail(i, count, f"{summary[1]}: {summary[2]}")
                continue
            try:
                wl.verify(pool[i], g, expected, summary)
            except Exception as exc:
                fail(i, count, f"{type(exc).__name__}: {exc}")
    return failed, reasons


def commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def run_one(args) -> int:
    workloads = import_library()
    import altcycles.graph as graph
    import networkx
    from spans import Tracer

    import_s = time.perf_counter() - STARTED
    clock = Calibrator()
    wl = workloads.WORKLOADS[args.workload]
    pool, digest, setup_rep_s, setup_rep_wall_s = set_up(wl, args.seed, clock)
    setup_s = import_s * clock.scale(0, 0) + setup_rep_s
    setup_wall_s = import_s + setup_rep_wall_s

    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    try:
        times, outcomes, passes = run_passes(wl, pool, args.seconds, tracer, clock)
    finally:
        if tracer is not None:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    check_start = time.perf_counter()
    failed, reasons = check_outcomes(wl, pool, outcomes, graph)
    check_s = time.perf_counter() - check_start
    attempted = passes * len(pool)
    wall = op_figures([[w for w, _s in t] for t in times], attempted - failed)
    scaled = op_figures([[s for _w, s in t] for t in times], attempted - failed)
    tail_pct = 100.0 * (len(pool) - TAIL_BEYOND) / len(pool)
    values = dict(scaled, setup_s=setup_s, peak_rss_mb=peak_rss_mb)
    e2e = {name: (values[name], unit) for name, unit in END_TO_END}
    kernel_ms = [s * 1000.0 for s in clock.samples]
    layers = tracer.layer_metrics(passes) if tracer is not None else {}
    reported = layers if tracer is not None else e2e

    verdicts = Counter(s[0] for c in outcomes for s in c.elements())
    print(f"workload {wl.name}  seed {args.seed}  trace {args.trace}  "
          f"inputs {len(pool)}  passes {passes}  ops {attempted}")
    print(f"  input digest {digest[:16]}  verdicts {dict(sorted(verdicts.items()))}")
    print(f"  failed_ratio {failed / attempted:g}  ({failed} of {attempted})")
    print(f"  op_ms.tail is p{tail_pct:.4g} of {len(pool)} per-input median latencies; "
          f"output checks took {check_s:.2f} s")
    print(f"  reference kernel {statistics.median(kernel_ms):.3f} ms median "
          f"({min(kernel_ms):.3f}-{max(kernel_ms):.3f}, {len(kernel_ms)} samples; "
          f"nominal {REF_S * 1000.0:g} ms)")
    print(f"  wall clock: ops_per_s {wall['ops_per_s']:.6g}  op_ms.p50 {wall['op_ms.p50']:.6g}  "
          f"op_ms.tail {wall['op_ms.tail']:.6g}  setup_s {setup_wall_s:.6g}  "
          f"(timed {wall['timed_s']:.3f} s)")
    if tracer is not None:
        print(f"  traced ops_per_s {e2e['ops_per_s'][0]:.4f} 1/s (end-to-end metrics come from --trace 0)")
        for hook in tracer.missing:
            print(f"  hook missing: {hook}; its layer's metrics are absent")
    for name, (value, unit) in reported.items():
        print(f"  {name:<52} {value:.6g} {unit}")
    for why in reasons:
        print(f"  FAILED {why}")

    record = {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "input_digest": digest,
        "inputs": len(pool),
        "passes": passes,
        "attempted": attempted,
        "failed": failed,
        "failed_ratio": failed / attempted,
        "failures": reasons,
        "tail_percentile": tail_pct,
        "tail_samples": len(pool),
        "wall_clock": dict(wall, setup_s=setup_wall_s),
        "kernel_ms": {"median": statistics.median(kernel_ms), "min": min(kernel_ms),
                      "max": max(kernel_ms), "samples": len(kernel_ms),
                      "nominal": REF_S * 1000.0},
        "check_s": check_s,
        "verdicts": dict(verdicts),
        "end_to_end": {k: v for k, (v, _u) in e2e.items()},
        "per_layer": {k: v for k, (v, _u) in layers.items()},
        "missing_hooks": tracer.missing if tracer is not None else [],
        "python": platform.python_version(),
        "networkx": networkx.__version__,
        "commit": commit(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
    }
    RESULTS.mkdir(exist_ok=True)
    stem = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        with open(RESULTS / f"{stem}.spans.jsonl", "w") as f:
            for span in tracer.spans:
                f.write(json.dumps(span) + "\n")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in reported.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, one after another."""
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines or not json.loads(lines[-1])["correct"]:
            status = 1
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
