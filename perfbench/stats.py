"""Small, dependency-free statistics for the benchmark.

Everything here is pure and unit-tested in ``test_perfbench.py``:

* :func:`percentile` — nearest-rank percentile that refuses to report a
  tail it cannot support (at least ten samples must lie beyond it);
* :func:`self_time` — a span's duration minus the part of its interval
  that its children cover;
* :class:`Tally` — attempted/failed accounting behind ``failed_ratio``.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Sequence, Tuple

#: Samples that must lie strictly beyond a reported percentile.
MIN_BEYOND = 10


class TooFewSamples(ValueError):
    """The sample cannot support the requested percentile."""


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile (0 < q <= 100) of ``samples``.

    The nearest rank is ``ceil(q/100 * n)`` (1-based).  The percentile is
    only meaningful when at least :data:`MIN_BEYOND` samples rank above
    it, so a p99 needs 1,000 samples and a p50 needs 20; fewer raise
    :class:`TooFewSamples` instead of returning a number dominated by one
    outlier.
    """
    if not 0 < q <= 100:
        raise ValueError("percentile must be in (0, 100], got %r" % q)
    n = len(samples)
    rank = max(1, math.ceil(q / 100.0 * n))
    if n == 0 or n - rank < MIN_BEYOND:
        raise TooFewSamples(
            "p%g of %d samples leaves %d beyond it (need %d)"
            % (q, n, max(0, n - rank), MIN_BEYOND)
        )
    return sorted(samples)[rank - 1]


def median(samples: Sequence[float]) -> float:
    """Plain median (mean of the middle pair for even counts)."""
    if not samples:
        raise TooFewSamples("median of no samples")
    ordered = sorted(samples)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def mean(samples: Sequence[float]) -> float:
    """Arithmetic mean; ``0.0`` for no samples (an idle layer)."""
    return sum(samples) / len(samples) if samples else 0.0


def covered(interval: Tuple[float, float], children: Iterable[Tuple[float, float]]) -> float:
    """Length of the union of ``children`` clipped to ``interval``."""
    lo, hi = interval
    clipped = sorted(
        (max(lo, start), min(hi, end))
        for start, end in children
        if end > lo and start < hi
    )
    total = 0.0
    cur_start = cur_end = None
    for start, end in clipped:
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_time(interval: Tuple[float, float], children: Iterable[Tuple[float, float]]) -> float:
    """A span's duration minus the time its children cover.

    Overlapping children (two worker threads inside one request) are
    counted once, and a child reaching outside its parent only counts
    inside the parent's interval, so self time is never negative.
    """
    return (interval[1] - interval[0]) - covered(interval, children)


class Tally:
    """Attempted and failed operations, by reason.

    ``failed_ratio`` is failures over attempts: admission rejects,
    exceptions and wrong answers all count as failures, and an answer
    found wrong after the fact turns an already-counted success into a
    failure without adding an attempt.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: Dict[str, int] = {}
        self.samples: List[str] = []

    def attempt(self, count: int = 1) -> None:
        self.attempted += count

    def fail(self, reason: str, detail: str = "") -> None:
        """Record one failure of an operation already counted as attempted."""
        self.failures[reason] = self.failures.get(reason, 0) + 1
        if detail and len(self.samples) < 5:
            self.samples.append("%s: %s" % (reason, detail))

    def merge(self, other: "Tally") -> None:
        self.attempted += other.attempted
        for reason, count in other.failures.items():
            self.failures[reason] = self.failures.get(reason, 0) + count
        self.samples.extend(other.samples[: max(0, 5 - len(self.samples))])

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    @property
    def failed_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0
