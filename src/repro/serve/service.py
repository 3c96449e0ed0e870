"""The :class:`QueryService`: worker threads, admission control, result cache.

Design
------
One service owns:

* a bounded :class:`queue.Queue` of pending requests (admission control —
  a full queue rejects immediately instead of building unbounded backlog);
* ``workers`` daemon threads draining that queue.  Each worker calls the
  shared :class:`~repro.provenance.reasoner.ProvenanceReasoner`; reads on
  a :class:`~repro.warehouse.sqlite.SqliteWarehouse` go through the
  warehouse's per-thread read-only connections, so workers never touch
  the single write connection;
* a shared :class:`~repro.obs.BoundedCache` of finished answers keyed on
  ``(run_id, presentation_key, kind, data_id)`` where ``presentation_key``
  is :meth:`UserView.presentation_key` (``None`` for UAdmin).  The cache
  uses run-scoped generation tokens, so :meth:`invalidate_run` racing a
  slow in-flight build can never resurrect a stale answer.

Thread-affinity contract: workers only *read*.  Anything that writes —
building a label index, dropping one during invalidation — must happen on
the thread that created the warehouse.  :meth:`warm` exists precisely for
that: call it from the owner thread before :meth:`start` when using the
``labeled`` strategy, so workers find the labels already built.  A run
nobody warmed is still answered — through the recursive closure, counted
under ``labels.miss`` — because a worker never builds labels itself.
"""

from __future__ import annotations

import queue
import threading
import time
from concurrent.futures import Future
from typing import Any, Dict, Iterable, Optional, Tuple

from ..core.errors import ZoomError
from ..core.view import UserView
from ..obs import BoundedCache, get_registry
from ..obs.metrics import Counter, Gauge, MetricsRegistry, Timer
from ..provenance.reasoner import ProvenanceReasoner
from ..sanitize import assert_unlocked, make_lock, yield_point
from ..warehouse.base import ProvenanceWarehouse

#: The request vocabulary.  ``deep`` and ``reverse`` are the paper's
#: provenance queries; ``zoom`` is the view-switch query (the visible data
#: of a run at a view's granularity — what the GUI redraws on every zoom).
QUERY_KINDS = ("deep", "reverse", "zoom")

DEFAULT_WORKERS = 4
DEFAULT_QUEUE_SIZE = 128
DEFAULT_CACHE_SIZE = 4096

#: Queue handoff poll interval — lets workers notice shutdown promptly.
_POLL_SECONDS = 0.1


class ServiceError(ZoomError):
    """The service is in the wrong lifecycle state for the operation."""


class AdmissionError(ServiceError):
    """The request queue is full; the request was rejected, not queued."""


class _Request:
    """One queued query plus the future its answer resolves."""

    __slots__ = ("kind", "run_id", "data_id", "view", "future")

    def __init__(
        self,
        kind: str,
        run_id: str,
        data_id: Optional[str],
        view: Optional[UserView],
        future: "Future[Any]",
    ) -> None:
        self.kind = kind
        self.run_id = run_id
        self.data_id = data_id
        self.view = view
        self.future = future


class _ServeMetrics:
    """Cached handles to the service's hot-path metrics.

    Resolving a metric through the registry costs a lookup per call, and
    the worker loop records several metrics per request — so the service
    binds each handle once and reuses it.  A cheap identity check against
    the process-wide default registry keeps the handles honest when tests
    swap it with :func:`~repro.obs.set_registry`.
    """

    __slots__ = (
        "registry", "accepted", "rejected", "errors",
        "invalidations", "latency", "qps",
    )

    def __init__(self) -> None:
        self._bind(get_registry())

    def _bind(self, registry: MetricsRegistry) -> None:
        self.registry = registry
        self.accepted: Counter = registry.counter("serve.accepted")
        self.rejected: Counter = registry.counter("serve.rejected")
        self.errors: Counter = registry.counter("serve.errors")
        self.invalidations: Counter = registry.counter("serve.invalidations")
        self.latency: Timer = registry.timer("serve.latency")
        self.qps: Gauge = registry.gauge("serve.qps")

    def current(self) -> "_ServeMetrics":
        registry = get_registry()
        if registry is not self.registry:
            self._bind(registry)
        return self


class QueryService:
    """A thread pool serving provenance queries with a shared result cache.

    Parameters
    ----------
    warehouse:
        The warehouse to read from.  Its write connection stays with the
        thread that created it; workers read through per-thread read-only
        connections (SQLite) or under the mutation lock (memory).
    reasoner:
        Share an existing reasoner (e.g. a session's) so both sides hit
        the same run/composite/closure caches; a fresh one is built from
        ``strategy`` when omitted.
    workers / queue_size / cache_size:
        Pool width, admission-control bound and result-cache capacity.
    """

    def __init__(
        self,
        warehouse: ProvenanceWarehouse,
        reasoner: Optional[ProvenanceReasoner] = None,
        strategy: str = "cached",
        workers: int = DEFAULT_WORKERS,
        queue_size: int = DEFAULT_QUEUE_SIZE,
        cache_size: int = DEFAULT_CACHE_SIZE,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1, got %d" % workers)
        if queue_size < 1:
            raise ValueError("queue_size must be >= 1, got %d" % queue_size)
        self.warehouse = warehouse
        self.reasoner = reasoner or ProvenanceReasoner(warehouse, strategy=strategy)
        self.workers = workers
        self._results: BoundedCache[Tuple, Any] = BoundedCache(
            cache_size, name="serve.results"
        )
        self._queue: "queue.Queue[Optional[_Request]]" = queue.Queue(maxsize=queue_size)
        # Lock order (enforced by the sanitizer's lock-order graph, see
        # docs/sanitizer.md): ``_lifecycle`` strictly before ``_counts``.
        # No code path may acquire ``_lifecycle`` while holding
        # ``_counts`` — today neither is held while taking the other, and
        # the regression test pins the documented direction.
        self._lifecycle = make_lock("serve.lifecycle")
        self._counts = make_lock("serve.counts")
        self._threads: list = []             # guarded-by: _lifecycle
        self._running = False                # guarded-by: _lifecycle
        self._accepted = 0                   # guarded-by: _counts
        self._rejected = 0                   # guarded-by: _counts
        self._completed = 0                  # guarded-by: _counts
        self._started_at: Optional[float] = None  # guarded-by: _lifecycle
        self._elapsed = 0.0                  # guarded-by: _lifecycle
        self._metrics = _ServeMetrics()
        self.reasoner.add_invalidation_listener(self._on_run_invalidated)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> "QueryService":
        """Spawn the worker threads; idempotent while running."""
        with self._lifecycle:
            if self._running:
                return self
            self._running = True
            self._started_at = time.perf_counter()
            self._threads = [
                threading.Thread(
                    target=self._worker_loop,
                    name="zoom-serve-%d" % index,
                    daemon=True,
                )
                for index in range(self.workers)
            ]
            for thread in self._threads:
                thread.start()
        return self

    def stop(self) -> None:
        """Drain queued requests, then join the workers; idempotent."""
        with self._lifecycle:
            if not self._running:
                return
            self._running = False
            if self._started_at is not None:
                self._elapsed += time.perf_counter() - self._started_at
                self._started_at = None
            threads, self._threads = self._threads, []
        for _ in threads:
            self._queue.put(None)
        for thread in threads:
            thread.join()
        self._metrics.current().qps.set(self.qps())

    def __enter__(self) -> "QueryService":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    def close(self) -> None:
        """Stop and detach from the shared reasoner's invalidation fan-out."""
        self.stop()
        self.reasoner.remove_invalidation_listener(self._on_run_invalidated)

    @property
    def running(self) -> bool:
        return self._running

    # ------------------------------------------------------------------
    # Request intake
    # ------------------------------------------------------------------

    def submit(
        self,
        kind: str,
        run_id: str,
        data_id: Optional[str] = None,
        view: Optional[UserView] = None,
    ) -> "Future[Any]":
        """Enqueue one query; returns a future resolving to its answer.

        Raises :class:`AdmissionError` without blocking when the bounded
        queue is full (the ``serve.rejected`` counter ticks), and
        :class:`ServiceError` when the service is not running.
        """
        if kind not in QUERY_KINDS:
            raise ServiceError(
                "unknown query kind %r (expected one of %s)" % (kind, list(QUERY_KINDS))
            )
        if kind in ("deep", "reverse") and data_id is None:
            raise ServiceError("%r queries need a data_id" % kind)
        if not self._running:
            raise ServiceError("service is not running; call start() first")
        future: "Future[Any]" = Future()
        request = _Request(kind, run_id, data_id, view, future)
        try:
            self._queue.put_nowait(request)
        except queue.Full:
            with self._counts:
                self._rejected += 1
            self._metrics.current().rejected.increment()
            raise AdmissionError(
                "request queue full (%d pending); retry later" % self._queue.maxsize
            ) from None
        with self._counts:
            self._accepted += 1
        self._metrics.current().accepted.increment()
        return future

    def query(
        self,
        kind: str,
        run_id: str,
        data_id: Optional[str] = None,
        view: Optional[UserView] = None,
        timeout: Optional[float] = None,
    ) -> Any:
        """Blocking convenience wrapper around :meth:`submit`."""
        return self.submit(kind, run_id, data_id=data_id, view=view).result(
            timeout=timeout
        )

    # ------------------------------------------------------------------
    # Owner-thread preparation
    # ------------------------------------------------------------------

    def warm(
        self,
        run_ids: Iterable[str],
        views: Iterable[Optional[UserView]] = (),
    ) -> None:
        """Pre-materialise runs (and optionally composites) for serving.

        Must run on the warehouse's owner thread: under the ``labeled``
        strategy this *builds* each run's persistent reachability labels,
        a write that workers' read-only connections would refuse.  Passing
        views additionally pre-builds each ``(run, view)`` composite so
        the first concurrent burst starts hot.
        """
        views = list(views)
        for run_id in run_ids:
            self.reasoner.ensure_run_ready(run_id)
            self.reasoner._materialize_run(run_id)
            for view in views:
                if view is not None:
                    self.reasoner.composite_run(run_id, view)

    def invalidate_run(self, run_id: str) -> None:
        """Drop everything cached about one run, serve cache included.

        Delegates to the reasoner, whose listener fan-out reaches this
        service's result cache (and any other service sharing the
        reasoner).  Call from the warehouse owner thread — dropping a
        persistent label index is a write.
        """
        self.reasoner.invalidate_run(run_id)

    def refresh_run(self, run_id: str) -> None:
        """Flip one run's cached answers to its next generation.

        The streaming counterpart of :meth:`invalidate_run`: a committed
        epoch grew the run, so cached answers are stale but the
        persistent labels — which the streaming ingestor already
        advanced — survive.  Safe from any thread: nothing here
        writes to the warehouse.  Readers racing the refresh get either
        the previous epoch's answer or the new one, never a torn mix —
        the generation bump stops a slow in-flight build from publishing
        a stale result after the refresh.
        """
        self.reasoner.refresh_run(run_id)
        self._metrics.current().registry.counter(
            "serve.refreshes"
        ).increment()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _worker_loop(self) -> None:
        while True:
            try:
                request = self._queue.get(timeout=_POLL_SECONDS)
            except queue.Empty:
                continue
            if request is None:
                return
            if not request.future.set_running_or_notify_cancel():
                continue
            started = time.perf_counter()
            metrics = self._metrics.current()
            try:
                value = self._answer(request)
            except BaseException as exc:  # noqa: BLE001 - future carries it
                metrics.errors.increment()
                request.future.set_exception(exc)
            else:
                request.future.set_result(value)
            finally:
                # Metric recording must never happen inside a critical
                # section — the sanitizer files a finding if it does.
                assert_unlocked("serve.record-metrics")
                metrics.latency.observe(time.perf_counter() - started)
                with self._counts:
                    self._completed += 1

    def _answer(self, request: _Request) -> Any:
        yield_point("serve.answer")
        key = (
            request.run_id,
            request.view.presentation_key() if request.view is not None else None,
            request.kind,
            request.data_id,
        )
        return self._results.get_or_build(
            key,
            lambda: self._compute(request),
            scope=request.run_id,
        )

    def _compute(self, request: _Request) -> Any:
        if request.kind == "deep":
            return self.reasoner.deep(
                request.run_id, request.data_id, view=request.view
            )
        if request.kind == "reverse":
            return self.reasoner.reverse(
                request.run_id, request.data_id, view=request.view
            )
        # "zoom": the view-switch query — the data visible at this
        # granularity, in deterministic order so answers compare bytewise.
        composite = self.reasoner.composite_run(
            request.run_id, self._zoom_view(request)
        )
        return tuple(sorted(composite.visible_data()))

    def _zoom_view(self, request: _Request) -> UserView:
        if request.view is not None:
            return request.view
        from ..core.view import admin_view

        return admin_view(self.reasoner._materialize_run(request.run_id).spec)

    def _on_run_invalidated(self, run_id: str) -> None:
        self._results.bump_generation(run_id)
        self._results.invalidate_where(lambda key: key[0] == run_id)
        self._metrics.current().invalidations.increment()

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------

    def qps(self) -> float:
        """Completed requests per second of service uptime."""
        elapsed = self._elapsed
        if self._started_at is not None:
            elapsed += time.perf_counter() - self._started_at
        with self._counts:
            completed = self._completed
        if elapsed <= 0:
            return 0.0
        return completed / elapsed

    def stats(self) -> Dict[str, Any]:
        """Queue/throughput/latency/cache snapshot for dashboards and tests."""
        metrics = self._metrics.current()
        timer = metrics.latency
        qps = self.qps()
        metrics.qps.set(qps)
        with self._counts:
            accepted, rejected, completed = (
                self._accepted,
                self._rejected,
                self._completed,
            )
        return {
            "workers": self.workers,
            "queue_depth": self._queue.qsize(),
            "queue_size": self._queue.maxsize,
            "accepted": accepted,
            "rejected": rejected,
            "completed": completed,
            "qps": round(qps, 2),
            "latency_ms": {
                "p50": round(timer.percentile(50) * 1000.0, 3),
                "p95": round(timer.percentile(95) * 1000.0, 3),
                "p99": round(timer.percentile(99) * 1000.0, 3),
            },
            "cache": self._results.stats().as_dict(),
            "reasoner": self.reasoner.stats(),
        }
