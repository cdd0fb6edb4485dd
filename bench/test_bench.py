"""Tests of the benchmark itself: per-layer counts repeat exactly, failed ops
are counted without stopping the run, the output checks reject wrong
results, a missing hook is reported, op times are scaled by the reference
kernel samples around them, and BENCHMARK.json names what the runner
prints. Each runs on a few small inputs of the real pools.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import altcycles.merge  # noqa: E402
import pytest  # noqa: E402

import calibrate  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from altcycles import parse_text, serialize_text  # noqa: E402

COUNT_SUFFIXES = (
    "calls", "violations", "edges_added", "rescans_per_edge",
    "merged_ratio", "none_ratio", "cycles_per_factor", "found_ratio",
)
# workload -> (entries taken from the pool, layer the workload is built for)
SMALL = {
    "solve-dense": (2, "predicates.two_m_violations"),
    "solve-corpus": (60, "factor.find_alternating_cycle_factor"),
    "closure": (3, "predicates.two_m_violations"),
    "color-connected": (25, "predicates.exists_alternating_path"),
}


def small_pool(name: str, seed: int = 5):
    wl = workloads.WORKLOADS[name]
    count, _layer = SMALL[name]
    return wl, wl.make_pool(seed)[:count]


def traced_pass(wl, pool, hooks=spans.HOOKS):
    tracer = spans.Tracer(hooks)
    tracer.install()
    try:
        latencies, outcomes, passes = run.run_passes(wl, pool, 0, tracer)
    finally:
        tracer.uninstall()
    return tracer, outcomes, tracer.layer_metrics(passes)


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_counts_repeat_exactly(name):
    wl, pool = small_pool(name)
    runs = [traced_pass(wl, pool)[2] for _ in range(2)]
    counts = [
        {k: v for k, (v, _unit) in m.items() if k.rsplit(".", 1)[1] in COUNT_SUFFIXES}
        for m in runs
    ]
    assert counts[0] == counts[1]
    assert counts[0][f"{SMALL[name][1]}.calls"] > 0


def test_hooks_are_removed_after_a_traced_run():
    original = altcycles.merge.merge_pair
    wl, pool = small_pool("solve-corpus")
    traced_pass(wl, pool)
    assert altcycles.merge.merge_pair is original


def test_missing_hook_is_named_and_its_layer_absent():
    hooks = tuple(
        (m, "merge_pair_renamed", layer) if attr == "merge_pair" else (m, attr, layer)
        for m, attr, layer in spans.HOOKS
    )
    wl, pool = small_pool("solve-corpus")
    tracer, outcomes, metrics = traced_pass(wl, pool, hooks)
    assert tracer.missing == ["altcycles.merge.merge_pair_renamed"]
    assert not any(k.startswith("merge.merge_pair.") for k in metrics)
    assert "merge.solve_hamiltonian.calls" in metrics
    assert run.check_outcomes(wl, pool, outcomes, altcycles.graph) == (0, [])


class Flaky:
    """Raises on n == 1, returns a wrong result on n == 3."""

    deterministic = False

    @staticmethod
    def op(entry):
        if entry.n == 1:
            raise RecursionError("maximum recursion depth exceeded")
        return entry.n

    @staticmethod
    def summarize(result):
        return ("n", result)

    def expect(self, entry, g):
        return None

    def verify(self, entry, g, expected, summary):
        if summary[1] == 3:
            raise workloads.CheckFailed("wrong")


def test_failed_ops_are_counted_and_the_run_goes_on():
    pool = [workloads.Entry(serialize_text(parse_text(f"n {n}\n")), "t", n) for n in range(5)]
    latencies, outcomes, passes = run.run_passes(Flaky(), pool, 0)
    assert (len(latencies), passes) == (5, 1)
    failed, reasons = run.check_outcomes(Flaky(), pool, outcomes, altcycles.graph)
    assert failed == 2
    assert "RecursionError" in reasons[0] and "wrong" in reasons[1]


def _outputs(name):
    wl, pool = small_pool(name)
    _lat, outcomes, _passes = run.run_passes(wl, pool, 0)
    return wl, pool, [next(iter(c)) for c in outcomes]


def _rejects(wl, entry, summary) -> bool:
    g = parse_text(entry.text)
    try:
        wl.verify(entry, g, wl.expect(entry, g), summary)
    except workloads.CheckFailed:
        return True
    return False


def test_checks_accept_real_outputs_and_reject_tampered_ones():
    wl, pool, outs = _outputs("solve-corpus")
    assert not any(_rejects(wl, e, s) for e, s in zip(pool, outs))
    kinds = {s[0] for s in outs}
    assert {"HamiltonianCycle", "NoFactor", "NotColorConnected", "NotTwoMClosed"} <= kinds
    for entry, s in zip(pool, outs):
        if s[0] == "HamiltonianCycle":
            flipped = s[2].translate(str.maketrans("BR", "RB"))
            assert _rejects(wl, entry, (s[0], s[1], flipped))
            assert _rejects(wl, entry, (s[0], s[1][:-2], s[2][:-2]))
            assert _rejects(wl, entry, ("NoFactor",))
        elif s[0] == "NotTwoMClosed":
            assert _rejects(wl, entry, (s[0], s[1], s[2], s[3], "B", "R"))

    wl, pool, outs = _outputs("closure")
    assert not any(_rejects(wl, e, s) for e, s in zip(pool, outs))
    assert _rejects(wl, pool[0], ("closed", pool[0].text))

    wl, pool, outs = _outputs("color-connected")
    assert not any(_rejects(wl, e, s) for e, s in zip(pool, outs))
    assert {"connected", "witness"} <= {s[0] for s in outs}
    for entry, s in zip(pool, outs):
        if s[0] == "witness":
            table = tuple((k, not ok) for k, ok in s[3])
            assert _rejects(wl, entry, (s[0], s[1], s[2], table))


def test_same_seed_same_inputs_other_seed_other_inputs():
    wl = workloads.WORKLOADS["closure"]
    a, b, c = (run.input_digest(wl.make_pool(s)) for s in (1, 1, 2))
    assert a == b != c


def test_benchmark_json_matches_runner():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    layers = [
        (f"{layer}.{suffix}", unit)
        for layer, metrics in spans.LAYER_METRICS.items()
        for suffix, unit in metrics
    ]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == layers


def test_scaled_times_follow_the_reference_kernel():
    clock = calibrate.Calibrator()
    wl, pool = small_pool("closure")
    times, _outcomes, passes = run.run_passes(wl, pool, 0, clock=clock)
    assert passes == 1 and len(clock.samples) >= 2
    factors = {round(scaled / wall, 9) for t in times for wall, scaled in t}
    possible = {
        round(clock.scale(j, j + 1), 9) for j in range(len(clock.samples) - 1)
    }
    assert factors <= possible
