"""A fixed reference kernel that measures how fast the host runs Python right
now, so that op times can be scaled to one nominal host speed.

On a shared host the speed of a core drifts by tens of percent within
seconds, and by up to 2x for minutes at a time, as other tenants come and
go; a run cannot outlast that. The kernel is interpreter-bound code of the
same kind as the library's hot loops (method calls, set membership, dicts
keyed by an Enum, sorting tuples) but shares no code with it, so a change
to the library cannot speed it up. The runner samples it between ops and
scales each op's wall time by REF_S over the mean of the samples taken
just before and just after it.
"""
from __future__ import annotations

import random
from enum import Enum
from time import perf_counter

# The kernel's nominal time: a scaled time is the op's wall time on a host
# where one kernel pass takes this long.
REF_S = 0.003
# Sample no more often than this.
EVERY_S = 0.05


class _Color(Enum):
    B = "B"
    R = "R"


class _Graph:
    def __init__(self, n: int):
        self.n = n
        self.adj = {c: [set() for _ in range(n)] for c in _Color}

    def _check(self, v: int) -> None:
        if not 0 <= v < self.n:
            raise ValueError(v)

    def add(self, u: int, v: int, c: _Color) -> None:
        self._check(u)
        self._check(v)
        self.adj[c][u].add(v)
        self.adj[c][v].add(u)

    def neighbors(self, v: int, c: _Color) -> set[int]:
        self._check(v)
        return set(self.adj[c][v])

    def adjacent(self, u: int, v: int) -> bool:
        self._check(u)
        self._check(v)
        return v in self.adj[_Color.B][u] or v in self.adj[_Color.R][u]


_N = 40
_rng = random.Random(12345)
_EDGES = [
    (u, v, _rng.choice((_Color.B, _Color.R)))
    for u in range(_N)
    for v in range(u + 1, _N)
    if _rng.random() < 0.3
]


def kernel() -> int:
    """Build a fixed 40-vertex two-colored graph and list its open
    monochromatic 2-paths."""
    g = _Graph(_N)
    for u, v, c in _EDGES:
        g.add(u, v, c)
    out = []
    for mid in range(_N):
        for c in _Color:
            nbrs = sorted(g.neighbors(mid, c))
            for i, a in enumerate(nbrs):
                for b in nbrs[i + 1 :]:
                    if not g.adjacent(a, b):
                        out.append((a, mid, b, c.value))
    return len(sorted(set(out)))


KERNEL_RESULT = kernel()


class Calibrator:
    """Kernel samples taken through a run, in order."""

    def __init__(self):
        self.samples: list[float] = []
        self._last = float("-inf")

    def sample(self) -> int:
        """Time the kernel now; returns the new sample's index."""
        t0 = perf_counter()
        result = kernel()
        self._last = perf_counter()
        if result != KERNEL_RESULT:
            raise RuntimeError("calibration kernel gave a different result")
        self.samples.append(self._last - t0)
        return len(self.samples) - 1

    def maybe_sample(self) -> int:
        """Sample if EVERY_S has passed since the last one; returns the
        index of the latest sample."""
        if perf_counter() - self._last >= EVERY_S:
            return self.sample()
        return len(self.samples) - 1

    def scale(self, before: int, after: int) -> float:
        """Factor from wall time to scaled time for work done between
        samples `before` and `after`."""
        return REF_S / ((self.samples[before] + self.samples[after]) / 2)
