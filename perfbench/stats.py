"""Order statistics and the per-round determinism digest.

Percentiles are nearest-rank, as in :class:`repro.sim.LatencyMonitor`,
so a reported latency is always one that was really observed.
"""

from __future__ import annotations

import hashlib
import math
import statistics

#: Tail percentiles tried from the highest down; the first one with at
#: least ``TAIL_MIN_BEYOND`` samples above it is reported.
TAIL_PERCENTILES = (99.0, 95.0, 90.0)
TAIL_MIN_BEYOND = 10


def percentile(samples: list[float], p: float) -> float:
    """Nearest-rank percentile of ``samples`` (``p`` in (0, 100])."""
    if not samples:
        raise ValueError("no samples")
    ordered = sorted(samples)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond it) for the highest supported tail.

    Falls back to p90 when even p90 has fewer than ``TAIL_MIN_BEYOND``
    samples beyond it; the returned count says how much to trust it.
    """
    n = len(samples)
    for p in TAIL_PERCENTILES:
        beyond = n - max(1, math.ceil(p / 100.0 * n))
        if beyond >= TAIL_MIN_BEYOND:
            return percentile(samples, p), p, beyond
    p = TAIL_PERCENTILES[-1]
    return percentile(samples, p), p, n - max(1, math.ceil(p / 100.0 * n))


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


class Digest:
    """SHA-256 over everything a run's simulated behaviour determines."""

    def __init__(self):
        self._hash = hashlib.sha256()

    def floats(self, *values: float) -> None:
        for value in values:
            self._hash.update(float(value).hex().encode())
            self._hash.update(b";")

    def text(self, value: str) -> None:
        self._hash.update(value.encode())
        self._hash.update(b";")

    def blob(self, data: bytes) -> None:
        self._hash.update(len(data).to_bytes(8, "little"))
        self._hash.update(data)

    def hexdigest(self) -> str:
        return self._hash.hexdigest()[:16]
