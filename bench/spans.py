"""Spans around the calls into each layer, recorded from outside the library.

For the traced run only, `Tracer.install` replaces the module attributes
through which layers call each other with timing wrappers, and `uninstall`
puts the originals back. Each span is (layer, start, end, parent span, op
id); spans stay in memory until the run writes them out. A hook whose
target no longer exists is reported by name and its layer's metrics are
left out, instead of failing the run.
"""
from __future__ import annotations

import importlib
from collections import Counter, defaultdict
from time import perf_counter

# (module, attribute, layer). The first four are the ops' top-level calls.
HOOKS = (
    ("altcycles.graph", "parse_text", "graph.parse_text"),
    ("altcycles.merge", "solve_hamiltonian", "merge.solve_hamiltonian"),
    ("altcycles.generate", "closure_2m", "generate.closure_2m"),
    ("altcycles.predicates", "color_connectivity_witness", "predicates.color_connectivity_witness"),
    ("altcycles.merge", "two_m_violations", "predicates.two_m_violations"),
    ("altcycles.generate", "two_m_violations", "predicates.two_m_violations"),
    ("altcycles.factor", "find_alternating_cycle_factor", "factor.find_alternating_cycle_factor"),
    ("altcycles.factor", "maximum_matching", "factor.maximum_matching"),
    ("altcycles.merge", "merge_pair", "merge.merge_pair"),
    ("altcycles.merge", "build_domination_digraph", "merge.build_domination_digraph"),
    ("altcycles.merge", "validate_cycle", "cycles.validate_cycle"),
    ("altcycles.merge", "oracle_merge", "oracles.oracle_merge"),
    ("altcycles.predicates", "exists_alternating_path", "predicates.exists_alternating_path"),
)

# Per-layer metrics in report order: layer -> ((suffix, unit), ...).
LAYER_METRICS = {
    "predicates.two_m_violations": (("calls", "count"), ("busy_s", "s"), ("violations", "count")),
    "factor.find_alternating_cycle_factor": (
        ("calls", "count"), ("busy_s", "s"), ("self_s", "s"),
        ("none_ratio", "ratio"), ("cycles_per_factor", "cycles/factor"),
    ),
    "factor.maximum_matching": (("calls", "count"), ("busy_s", "s")),
    "predicates.exists_alternating_path": (("calls", "count"), ("busy_s", "s"), ("found_ratio", "ratio")),
    "predicates.color_connectivity_witness": (("calls", "count"), ("busy_s", "s")),
    "generate.closure_2m": (
        ("calls", "count"), ("busy_s", "s"), ("self_s", "s"),
        ("edges_added", "count"), ("rescans_per_edge", "rescans/edge"),
    ),
    "graph.parse_text": (("calls", "count"), ("busy_s", "s")),
    "merge.solve_hamiltonian": (("calls", "count"), ("busy_s", "s"), ("self_s", "s")),
    "merge.merge_pair": (("calls", "count"), ("busy_s", "s"), ("merged_ratio", "ratio")),
    "merge.build_domination_digraph": (("calls", "count"), ("busy_s", "s")),
    "cycles.validate_cycle": (("calls", "count"), ("busy_s", "s")),
    "oracles.oracle_merge": (("calls", "count"),),
}


def _tally(layer: str, args: tuple, result, tally: Counter) -> None:
    """Counts taken from a call's arguments and result, at the boundary."""
    if layer == "predicates.two_m_violations":
        tally["violations"] += len(result)
    elif layer == "factor.find_alternating_cycle_factor":
        if result is None:
            tally["none"] += 1
        else:
            tally["cycles"] += len(result)
    elif layer == "predicates.exists_alternating_path":
        tally["found"] += result is not None
    elif layer == "merge.merge_pair":
        tally["merged"] += type(result).__name__ == "Merged"
    elif layer == "generate.closure_2m":
        tally["edges_added"] += result.edge_count() - args[0].edge_count()


class Tracer:
    def __init__(self, hooks=HOOKS):
        self.hooks = hooks
        self.spans: list = []
        self.tallies: dict[str, Counter] = defaultdict(Counter)
        self.op = -1
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._saved: list = []

    def _wrap(self, layer: str, fn):
        spans, stack, tally = self.spans, self._stack, self.tallies[layer]

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[sid] = (layer, start, end, parent, self.op)
            _tally(layer, args, result, tally)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for module_name, attr, layer in self.hooks:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                module = None
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(layer, fn))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def absent_layers(self) -> set[str]:
        missing = set(self.missing)
        return {layer for m, a, layer in self.hooks if f"{m}.{a}" in missing}

    def layer_metrics(self, passes: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics, counts and times per pass over the pool."""
        calls: Counter = Counter()
        busy: Counter = Counter()
        child: Counter = Counter()  # span id -> time covered by its children
        closure_rescans = 0
        for sid, (layer, start, end, parent, _op) in enumerate(self.spans):
            calls[layer] += 1
            busy[layer] += end - start
            if parent >= 0:
                child[parent] += end - start
                if layer == "predicates.two_m_violations" and self.spans[parent][0] == "generate.closure_2m":
                    closure_rescans += 1
        own: Counter = Counter()
        for sid, (layer, start, end, _parent, _op) in enumerate(self.spans):
            own[layer] += end - start - child[sid]

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        absent = self.absent_layers()
        out = {}
        for layer, metrics in LAYER_METRICS.items():
            if layer in absent:
                continue
            t = self.tallies[layer]
            values = {
                "calls": calls[layer] / passes,
                "busy_s": busy[layer] / passes,
                "self_s": own[layer] / passes,
                "violations": t["violations"] / passes,
                "none_ratio": ratio(t["none"], calls[layer]),
                "cycles_per_factor": ratio(t["cycles"], calls[layer] - t["none"]),
                "found_ratio": ratio(t["found"], calls[layer]),
                "merged_ratio": ratio(t["merged"], calls[layer]),
                "edges_added": t["edges_added"] / passes,
                "rescans_per_edge": ratio(closure_rescans, t["edges_added"]),
            }
            for suffix, unit in metrics:
                out[f"{layer}.{suffix}"] = (values[suffix], unit)
        return out
