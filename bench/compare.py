"""Summarise records written by bench/run.py.

    python3 bench/compare.py bench/results/*.json [other/bench/results/*.json]

Records of one workload and seed must carry the same input digest; where they
differ the runs are flagged NOT COMPARABLE, because a generator's output
changed. For each workload it prints the median and quartiles of every
end-to-end metric over the untraced records, and the tracing overhead:
untraced minus traced ops_per_s.
"""
from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main(paths: list[str]) -> int:
    records = []
    for path in paths:
        with open(path) as f:
            records.append((path, json.load(f)))

    status = 0
    by_seed = defaultdict(list)
    for path, r in records:
        by_seed[(r["workload"], r["seed"])].append((path, r))
    for (workload, seed), group in sorted(by_seed.items()):
        if len({r["input_digest"] for _p, r in group}) > 1:
            print(f"NOT COMPARABLE: inputs differ: {workload} seed {seed}: "
                  + ", ".join(p for p, _r in group))
            status = 1

    by_workload = defaultdict(lambda: ([], []))
    for _path, r in records:
        by_workload[r["workload"]][r["trace"]].append(r)
    for workload, (plain, traced) in sorted(by_workload.items()):
        print(f"{workload}: {len(plain)} untraced, {len(traced)} traced records")
        for name in plain[0]["end_to_end"] if plain else ():
            q1, med, q3 = quartiles([r["end_to_end"][name] for r in plain])
            print(f"  {name:<14} median {med:<12.6g} quartiles {q1:.6g} .. {q3:.6g}"
                  f"  spread {(q3 - q1) / med:.3f}")
        if plain and traced:
            base = statistics.median(r["end_to_end"]["ops_per_s"] for r in plain)
            with_spans = statistics.median(r["end_to_end"]["ops_per_s"] for r in traced)
            print(f"  tracing overhead: {base - with_spans:.6g} ops/s "
                  f"({(base - with_spans) / base:.1%} of {base:.6g})")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
