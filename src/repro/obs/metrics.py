"""A minimal metrics registry: counters, timers, and a timing decorator.

Zero hard dependencies — values accumulate in-process and are emitted, on
request, through the standard :mod:`logging` machinery (logger
``repro.obs.metrics``).  The hot paths of the reproduction are annotated
with :func:`timed`:

``view.build``
    :meth:`repro.core.builder.RelevUserViewBuilder.build` — the Fig. 5
    algorithm.
``composite.build``
    :class:`repro.core.composite.CompositeRun` construction — inducing a
    run under a view.
``reasoner.admin_deep``
    The warehouse's recursive UAdmin closure (the expensive first query).
``reasoner.view_switch``
    Re-answering a deep query under a different view on a warm reasoner
    (the paper's 13 ms interactivity claim).
``labels.build``
    Materialising a run's reachability labels
    (:meth:`~repro.warehouse.base.ProvenanceWarehouse.build_label_index`).
``labels.lookup``
    Serving a deep-provenance answer from the labels (the ``labeled``
    reasoner strategy).
``ingest.prepare`` / ``ingest.gate`` / ``ingest.write``
    The three stages of the batch-ingestion pipeline
    (:func:`repro.warehouse.pipeline.ingest_dataset`): waiting on a
    prepared run (row shaping + lint + labels, possibly in a worker),
    applying the lint gate to a batch, and the single-transaction bulk
    write.  The companion counters ``ingest.runs`` / ``ingest.batches`` /
    ``ingest.specs`` record throughput.

All timers live in a process-wide default registry (:func:`get_registry`);
tests swap it out with :func:`set_registry`.
"""

from __future__ import annotations

import functools
import logging
import time
from collections import deque
from contextlib import contextmanager
from typing import Callable, Deque, Dict, Iterator, TypeVar

from ..sanitize import guard, make_lock

logger = logging.getLogger("repro.obs.metrics")

F = TypeVar("F", bound=Callable)


class Counter:
    """A monotonically increasing (resettable) integer metric."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._lock = make_lock("metrics.counter.%s" % name)
        self._value = 0  # guarded-by: _lock

    @property
    def value(self) -> int:
        return self._value  # lock-free read: int load is atomic under GIL

    def increment(self, amount: int = 1) -> int:
        with self._lock:
            self._value += amount
            return self._value

    def reset(self) -> None:
        with self._lock:
            self._value = 0

    def as_dict(self) -> Dict[str, object]:
        return {"count": self._value}


#: Recent observations a :class:`Timer` retains for percentile estimates.
TIMER_SAMPLE_WINDOW = 2048


class Gauge:
    """A point-in-time numeric metric (e.g. sustained QPS, pool size)."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._lock = make_lock("metrics.gauge.%s" % name)
        self._value = 0.0  # guarded-by: _lock

    @property
    def value(self) -> float:
        return self._value  # lock-free read: float load is atomic under GIL

    def set(self, value: float) -> float:
        with self._lock:
            self._value = float(value)
            return self._value

    def reset(self) -> None:
        with self._lock:
            self._value = 0.0

    def as_dict(self) -> Dict[str, object]:
        return {"value": round(self._value, 3)}


class Timer:
    """Accumulated wall-clock observations of one code path.

    Beyond the running aggregates, the last :data:`TIMER_SAMPLE_WINDOW`
    observations are retained in a ring buffer so callers can ask for tail
    latency (:meth:`percentile`) — what the serving layer reports as
    p50/p95/p99.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self._lock = make_lock("metrics.timer.%s" % name)
        self.count = 0             # guarded-by: _lock
        self.total = 0.0           # guarded-by: _lock
        self.min = float("inf")    # guarded-by: _lock
        self.max = 0.0             # guarded-by: _lock
        self.last = 0.0            # guarded-by: _lock
        self._samples: Deque[float] = deque(maxlen=TIMER_SAMPLE_WINDOW)

    def observe(self, seconds: float) -> None:
        with self._lock:
            self.count += 1
            self.total += seconds
            self.min = min(self.min, seconds)
            self.max = max(self.max, seconds)
            self.last = seconds
            self._samples.append(seconds)

    def percentile(self, q: float) -> float:
        """The ``q``-th percentile (0–100) of the retained sample window.

        Nearest-rank over the (bounded) recent window; ``0.0`` before the
        first observation.
        """
        if not 0 <= q <= 100:
            raise ValueError("percentile must be in [0, 100], got %r" % q)
        with self._lock:
            if not self._samples:
                return 0.0
            ordered = sorted(self._samples)
        rank = max(0, min(len(ordered) - 1,
                          int(round(q / 100.0 * (len(ordered) - 1)))))
        return ordered[rank]

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def reset(self) -> None:
        with self._lock:
            self.count = 0
            self.total = 0.0
            self.min = float("inf")
            self.max = 0.0
            self.last = 0.0
            self._samples.clear()

    def as_dict(self) -> Dict[str, object]:
        return {
            "count": self.count,
            "total_ms": round(self.total * 1000, 3),
            "mean_ms": round(self.mean * 1000, 3),
            "min_ms": round(self.min * 1000, 3) if self.count else 0.0,
            "max_ms": round(self.max * 1000, 3),
            "last_ms": round(self.last * 1000, 3),
        }


class MetricsRegistry:
    """Named counters and timers, created on first use.

    Lookups of *existing* metrics are lock-free: the metric maps follow a
    write-locked / read-free contract (mode ``"w"`` under the sanitizer) —
    every insertion happens under ``_lock`` with a double-checked re-read,
    while reads rely on CPython dict loads being atomic.  The serving hot
    path calls :meth:`counter`/:meth:`timer` per request, so taking the
    registry lock there would serialize unrelated worker threads on a
    metric lookup.
    """

    def __init__(self) -> None:
        self._lock = make_lock("metrics.registry")
        # Mutations guarded; reads deliberately lock-free (see class doc).
        self._counters: Dict[str, Counter] = guard(
            {}, self._lock, "metrics.registry._counters", mode="w"
        )  # guarded-by: _lock
        self._timers: Dict[str, Timer] = guard(
            {}, self._lock, "metrics.registry._timers", mode="w"
        )  # guarded-by: _lock
        self._gauges: Dict[str, Gauge] = guard(
            {}, self._lock, "metrics.registry._gauges", mode="w"
        )  # guarded-by: _lock

    def counter(self, name: str) -> Counter:
        counter = self._counters.get(name)
        if counter is not None:
            return counter
        with self._lock:
            counter = self._counters.get(name)
            if counter is None:
                counter = self._counters[name] = Counter(name)
            return counter

    def timer(self, name: str) -> Timer:
        timer = self._timers.get(name)
        if timer is not None:
            return timer
        with self._lock:
            timer = self._timers.get(name)
            if timer is None:
                timer = self._timers[name] = Timer(name)
            return timer

    def gauge(self, name: str) -> Gauge:
        gauge = self._gauges.get(name)
        if gauge is not None:
            return gauge
        with self._lock:
            gauge = self._gauges.get(name)
            if gauge is None:
                gauge = self._gauges[name] = Gauge(name)
            return gauge

    @contextmanager
    def time(self, name: str) -> Iterator[Timer]:
        """Context manager observing the elapsed wall-clock time."""
        timer = self.timer(name)
        started = time.perf_counter()
        try:
            yield timer
        finally:
            timer.observe(time.perf_counter() - started)

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """All metrics as plain dicts, counters and timers alike."""
        with self._lock:
            names = sorted(
                set(self._counters) | set(self._timers) | set(self._gauges)
            )
            out: Dict[str, Dict[str, object]] = {}
            for name in names:
                merged: Dict[str, object] = {}
                if name in self._counters:
                    merged.update(self._counters[name].as_dict())
                if name in self._timers:
                    merged.update(self._timers[name].as_dict())
                if name in self._gauges:
                    merged.update(self._gauges[name].as_dict())
                out[name] = merged
        return out

    def reset(self) -> None:
        """Zero every metric (names survive)."""
        with self._lock:
            for counter in self._counters.values():
                counter.reset()
            for timer in self._timers.values():
                timer.reset()
            for gauge in self._gauges.values():
                gauge.reset()

    def log_snapshot(self, level: int = logging.DEBUG) -> None:
        """Emit the current snapshot through ``repro.obs.metrics``."""
        for name, values in self.snapshot().items():
            logger.log(level, "%s %s", name, values)


_default_registry = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide default registry."""
    return _default_registry


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the default registry (tests); returns the previous one."""
    global _default_registry
    previous = _default_registry
    _default_registry = registry
    return previous


def timed(name: str) -> Callable[[F], F]:
    """Decorator recording the wrapped callable's wall time under ``name``.

    The registry is resolved at call time, so :func:`set_registry` affects
    already-decorated functions.
    """

    def decorate(func: F) -> F:
        @functools.wraps(func)
        def wrapper(*args: object, **kwargs: object):
            timer = get_registry().timer(name)
            started = time.perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                timer.observe(time.perf_counter() - started)

        return wrapper  # type: ignore[return-value]

    return decorate
