"""Concurrent serving: thread affinity, the result cache, admission control.

Covers the serving bugfixes and the ``repro.serve`` service itself:

* ``SqliteWarehouse`` answers queries from worker threads (per-thread
  read-only connections) instead of raising ``sqlite3.ProgrammingError``;
* ``invalidate_run`` racing an in-flight cache build can never publish a
  stale answer (generation tokens, deterministic two-thread tests);
* N worker threads return byte-identical answers to a serial reference on
  both backends, and a saturated service rejects instead of deadlocking.
"""

from __future__ import annotations

import sqlite3
import threading
import time
from typing import Any, Dict, List, Tuple

import pytest

from repro.faults import FaultPlan, InjectedCrash
from repro.obs import BoundedCache, MetricsRegistry, set_registry
from repro.provenance.reasoner import ProvenanceReasoner
from repro.serve import QUERY_KINDS, AdmissionError, QueryService, ServiceError
from repro.warehouse.memory import InMemoryWarehouse
from repro.warehouse.pipeline import PreparedRun
from repro.warehouse.sqlite import SqliteWarehouse
from repro.zoom.session import Session


def _loaded(warehouse, spec, run):
    spec_id = warehouse.store_spec(spec)
    run_id = warehouse.store_run(run, spec_id)
    return spec_id, run_id


def _in_thread(func):
    """Run ``func`` in a fresh thread; return its result or raise its error."""
    box: Dict[str, Any] = {}

    def target():
        try:
            box["value"] = func()
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            box["error"] = exc

    thread = threading.Thread(target=target)
    thread.start()
    thread.join(timeout=30)
    assert not thread.is_alive(), "worker thread hung"
    if "error" in box:
        raise box["error"]
    return box["value"]


# ----------------------------------------------------------------------
# Bugfix 1: SQLite thread affinity
# ----------------------------------------------------------------------


class TestCrossThreadReads:
    def test_memory_sqlite_reads_from_worker_thread(self, spec, run):
        warehouse = SqliteWarehouse()
        _spec_id, run_id = _loaded(warehouse, spec, run)
        output = sorted(warehouse.final_outputs(run_id))[0]
        expected = warehouse.admin_deep_provenance(run_id, output)

        got = _in_thread(lambda: warehouse.admin_deep_provenance(run_id, output))

        assert got == expected
        assert got.sorted_rows() == expected.sorted_rows()
        warehouse.close()

    def test_file_sqlite_reads_from_worker_thread(self, tmp_path, spec, run):
        warehouse = SqliteWarehouse(str(tmp_path / "wh.db"))
        _spec_id, run_id = _loaded(warehouse, spec, run)
        expected = warehouse.get_run(run_id)

        got = _in_thread(lambda: warehouse.get_run(run_id))

        assert got.run_id == expected.run_id
        assert got.num_steps() == expected.num_steps()
        warehouse.close()

    def test_each_thread_gets_its_own_reader(self, spec, run):
        warehouse = SqliteWarehouse()
        _loaded(warehouse, spec, run)
        owner_conn = warehouse._conn
        reader_a = _in_thread(lambda: warehouse._conn)
        reader_b = _in_thread(lambda: warehouse._conn)

        assert owner_conn is warehouse._write_conn
        assert reader_a is not owner_conn
        assert reader_b is not owner_conn
        assert reader_a is not reader_b
        warehouse.close()

    def test_reader_connections_refuse_writes(self, spec, run):
        """Cross-thread *writes* fail fast and loudly, never corrupting."""
        warehouse = SqliteWarehouse()
        _loaded(warehouse, spec, run)

        def attempt_write():
            warehouse._conn.execute("DELETE FROM runs")

        with pytest.raises(sqlite3.OperationalError):
            _in_thread(attempt_write)
        warehouse.close()

    def test_memory_backend_reads_from_worker_thread(self, spec, run):
        warehouse = InMemoryWarehouse()
        _spec_id, run_id = _loaded(warehouse, spec, run)
        output = sorted(warehouse.final_outputs(run_id))[0]
        expected = warehouse.admin_deep_provenance(run_id, output)

        got = _in_thread(lambda: warehouse.admin_deep_provenance(run_id, output))

        assert got == expected


# ----------------------------------------------------------------------
# Bugfix 2: the invalidate-vs-in-flight-build race
# ----------------------------------------------------------------------


class TestGenerationRace:
    def test_stale_build_is_not_published(self):
        cache: BoundedCache = BoundedCache(8, name="race")
        factory_entered = threading.Event()
        release_factory = threading.Event()

        def slow_factory():
            factory_entered.set()
            assert release_factory.wait(timeout=10)
            return "stale-answer"

        result: Dict[str, str] = {}

        def builder():
            result["value"] = cache.get_or_build("k", slow_factory, scope="run1")

        thread = threading.Thread(target=builder)
        thread.start()
        assert factory_entered.wait(timeout=10)
        # The run is invalidated *while* the factory is computing.
        cache.bump_generation("run1")
        release_factory.set()
        thread.join(timeout=10)

        # The caller still gets its (by-then stale) answer...
        assert result["value"] == "stale-answer"
        # ...but the cache refused to publish it.
        assert "k" not in cache
        assert cache.stats().stale_drops == 1

    def test_current_build_is_published(self):
        cache: BoundedCache = BoundedCache(8, name="no-race")
        value = cache.get_or_build("k", lambda: "fresh", scope="run1")
        assert value == "fresh"
        assert cache.get("k") == "fresh"
        assert cache.stats().stale_drops == 0

    def test_reasoner_invalidate_during_materialize(self, spec, run):
        """invalidate_run landing mid-build must not resurrect the run."""
        warehouse = InMemoryWarehouse()
        _spec_id, run_id = _loaded(warehouse, spec, run)
        reasoner = ProvenanceReasoner(warehouse, strategy="cached")

        fetch_entered = threading.Event()
        release_fetch = threading.Event()
        original_get_run = warehouse.get_run

        def blocking_get_run(target_id):
            if target_id == run_id and not release_fetch.is_set():
                fetch_entered.set()
                assert release_fetch.wait(timeout=10)
            return original_get_run(target_id)

        warehouse.get_run = blocking_get_run  # type: ignore[method-assign]

        def materialize():
            return reasoner._materialize_run(run_id)

        thread = threading.Thread(target=materialize)
        thread.start()
        assert fetch_entered.wait(timeout=10)
        reasoner.invalidate_run(run_id)
        release_fetch.set()
        thread.join(timeout=10)
        assert not thread.is_alive()

        # The in-flight build was dropped, not cached as fresh.
        assert run_id not in reasoner._run_cache
        assert reasoner._run_cache.stats().stale_drops == 1

    def test_invalidation_fans_out_to_serve_cache(self, spec, run):
        warehouse = InMemoryWarehouse()
        _spec_id, run_id = _loaded(warehouse, spec, run)
        output = sorted(warehouse.final_outputs(run_id))[0]
        service = QueryService(warehouse, workers=1)
        try:
            with service:
                service.query("deep", run_id, data_id=output)
                assert len(service._results) == 1
                service.invalidate_run(run_id)
                assert len(service._results) == 0
                # Recomputation works and repopulates.
                service.query("deep", run_id, data_id=output)
                assert len(service._results) == 1
        finally:
            service.close()


# ----------------------------------------------------------------------
# The service: parity, admission control, lifecycle
# ----------------------------------------------------------------------


def _request_mix(warehouse, run_id, joe, mary):
    output = sorted(warehouse.final_outputs(run_id))[0]
    an_input = sorted(warehouse.user_inputs(run_id))[0]
    return [
        ("deep", run_id, output, None),
        ("deep", run_id, output, joe),
        ("deep", run_id, output, mary),
        ("reverse", run_id, an_input, None),
        ("reverse", run_id, an_input, joe),
        ("zoom", run_id, None, joe),
        ("zoom", run_id, None, mary),
        ("zoom", run_id, None, None),
    ]


def _serial_reference(warehouse, requests):
    reasoner = ProvenanceReasoner(warehouse, strategy="cached")
    answers = []
    for kind, run_id, data_id, view in requests:
        if kind == "deep":
            answers.append(reasoner.deep(run_id, data_id, view=view))
        elif kind == "reverse":
            answers.append(reasoner.reverse(run_id, data_id, view=view))
        else:
            from repro.core.view import admin_view

            target = view or admin_view(reasoner._materialize_run(run_id).spec)
            composite = reasoner.composite_run(run_id, target)
            answers.append(tuple(sorted(composite.visible_data())))
    return answers


def _canonical(answer) -> str:
    if isinstance(answer, tuple):
        return repr(answer)
    rows = getattr(answer, "sorted_rows", None)
    if rows is not None:
        return repr([(r.step_id, r.module, sorted(r.data_in)) for r in rows()])
    return repr(answer)


class TestConcurrencyParity:
    @pytest.mark.parametrize("strategy", ["cached", "labeled"])
    @pytest.mark.parametrize("backend", ["sqlite", "memory"])
    def test_concurrent_answers_match_serial(
        self, backend, strategy, spec, run, joe, mary
    ):
        warehouse = (
            SqliteWarehouse() if backend == "sqlite" else InMemoryWarehouse()
        )
        _spec_id, run_id = _loaded(warehouse, spec, run)
        requests = _request_mix(warehouse, run_id, joe, mary)
        reference = [_canonical(a) for a in _serial_reference(warehouse, requests)]

        service = QueryService(
            warehouse, strategy=strategy, workers=4, queue_size=64
        )
        # Labeled index builds are warehouse writes; warm() runs them on
        # the owner thread so the read-only workers find labels in place.
        service.warm([run_id])
        collected: List[Tuple[int, str]] = []
        errors: List[BaseException] = []
        lock = threading.Lock()

        def client(offset: int) -> None:
            # Each client walks the whole mix from a different offset, so
            # identical queries are genuinely in flight simultaneously.
            for step in range(len(requests)):
                index = (offset + step) % len(requests)
                kind, rid, data_id, view = requests[index]
                try:
                    answer = service.query(kind, rid, data_id=data_id, view=view)
                except AdmissionError:
                    time.sleep(0.005)
                    answer = service.query(kind, rid, data_id=data_id, view=view)
                except BaseException as exc:  # noqa: BLE001
                    with lock:
                        errors.append(exc)
                    return
                with lock:
                    collected.append((index, _canonical(answer)))

        try:
            with service:
                threads = [
                    threading.Thread(target=client, args=(i,)) for i in range(6)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                    assert not thread.is_alive(), "client deadlocked"
        finally:
            service.close()
            close = getattr(warehouse, "close", None)
            if close:
                close()

        assert not errors, errors
        assert len(collected) == 6 * len(requests)
        for index, canonical in collected:
            assert canonical == reference[index], (
                "request %d diverged from serial reference" % index
            )


class TestStoreManyProfile:
    def test_failed_store_many_restores_durable_profile(self, spec, run):
        """A batch write that dies mid-transaction still restores the
        durable fsync profile for the service traffic that follows."""
        warehouse = SqliteWarehouse(
            faults=FaultPlan().crash_at("store_many.mid")
        )
        spec_id = warehouse.store_spec(spec)
        with pytest.raises(InjectedCrash):
            warehouse.store_many([PreparedRun("bulk/run1", spec_id, "r")])
        assert warehouse._conn.execute("PRAGMA synchronous").fetchone()[0] == 1
        assert warehouse.list_runs() == []
        warehouse.store_run(run, spec_id, run_id="bulk/run1")
        assert warehouse.list_runs() == ["bulk/run1"]
        warehouse.close()


class TestUnwarmedLabeledService:
    """A labeled service must answer runs nobody warmed: its workers hold
    read-only connections, so the read path may not build labels."""

    def test_unwarmed_runs_answer_through_the_closure(
        self, tmp_path, spec, run, joe
    ):
        registry = MetricsRegistry()
        previous = set_registry(registry)
        warehouse = SqliteWarehouse(str(tmp_path / "wh.db"))
        service = QueryService(warehouse, strategy="labeled", workers=2)
        try:
            spec_id = warehouse.store_spec(spec)
            run_ids = [
                warehouse.store_run(run, spec_id, run_id="labeled/run%d" % n)
                for n in (1, 2)
            ]
            reference = ProvenanceReasoner(warehouse, strategy="uncached")
            service.start()
            for run_id in run_ids:
                for data_id in sorted(warehouse.final_outputs(run_id)):
                    for view in (None, joe):
                        assert service.query(
                            "deep", run_id, data_id=data_id, view=view
                        ) == reference.deep(run_id, data_id, view=view)
                assert not warehouse.has_label_index(run_id)
            misses = registry.counter("labels.miss").value
            assert misses > 0
            assert registry.timer("labels.lookup").count == 0

            # warm() on the owner thread still builds the labels, and the
            # workers then serve from them.
            service.warm(run_ids[:1])
            assert warehouse.has_label_index(run_ids[0])
            service.refresh_run(run_ids[0])
            data_id = sorted(warehouse.final_outputs(run_ids[0]))[0]
            assert service.query("deep", run_ids[0], data_id=data_id) == \
                reference.deep(run_ids[0], data_id)
            assert registry.timer("labels.lookup").count == 1
            assert registry.counter("labels.miss").value == misses
        finally:
            service.close()
            warehouse.close()
            set_registry(previous)


class TestVanishingLabels:
    """Labels a worker already saw may vanish under it (a streamed epoch
    or an owner-thread drop): its next lookup is a miss, not an error."""

    def test_dropped_labels_fall_back_to_the_closure(
        self, tmp_path, spec, run
    ):
        registry = MetricsRegistry()
        previous = set_registry(registry)
        warehouse = SqliteWarehouse(str(tmp_path / "wh.db"))
        try:
            _spec_id, run_id = _loaded(warehouse, spec, run)
            first, second, third = sorted(
                {data_id for _s, data_id, _d in warehouse.io_rows(run_id)}
            )[:3]
            reference = ProvenanceReasoner(warehouse, strategy="uncached")
            labeled = ProvenanceReasoner(warehouse, strategy="labeled")
            labeled.ensure_run_ready(run_id)
            assert _in_thread(
                lambda: labeled.admin_deep(run_id, first)
            ) == reference.admin_deep(run_id, first)
            assert registry.counter("labels.miss").value == 0

            warehouse.drop_label_index(run_id)
            assert _in_thread(
                lambda: labeled.admin_deep(run_id, second)
            ) == reference.admin_deep(run_id, second)
            assert registry.counter("labels.miss").value == 1

            # The reasoner forgot the run, so the owner thread's next
            # query rebuilds the labels.
            assert labeled.admin_deep(run_id, third) == \
                reference.admin_deep(run_id, third)
            assert warehouse.has_label_index(run_id)
        finally:
            warehouse.close()
            set_registry(previous)


class TestAdmissionControl:
    def test_saturated_service_rejects_instead_of_deadlocking(self, spec, run):
        warehouse = InMemoryWarehouse()
        _spec_id, run_id = _loaded(warehouse, spec, run)
        output = sorted(warehouse.final_outputs(run_id))[0]

        service = QueryService(warehouse, workers=1, queue_size=2)
        gate = threading.Event()
        original = service.reasoner.deep

        def slow_deep(*args, **kwargs):
            gate.wait(timeout=10)
            return original(*args, **kwargs)

        service.reasoner.deep = slow_deep  # type: ignore[method-assign]

        accepted = []
        rejections = 0
        try:
            with service:
                # Worker blocks on the first request; the queue then fills.
                for _ in range(16):
                    try:
                        accepted.append(
                            service.submit("deep", run_id, data_id=output)
                        )
                    except AdmissionError:
                        rejections += 1
                assert rejections > 0, "bounded queue never rejected"
                gate.set()
                for future in accepted:
                    future.result(timeout=30)  # nothing deadlocks
        finally:
            service.close()
        stats = service.stats()
        assert stats["rejected"] == rejections
        assert stats["completed"] >= len(accepted)

    def test_submit_validates_requests(self, spec, run):
        warehouse = InMemoryWarehouse()
        _spec_id, run_id = _loaded(warehouse, spec, run)
        service = QueryService(warehouse, workers=1)
        try:
            with pytest.raises(ServiceError):
                service.submit("deep", run_id, data_id="d1")  # not running
            with service:
                with pytest.raises(ServiceError):
                    service.submit("nonsense", run_id)
                with pytest.raises(ServiceError):
                    service.submit("deep", run_id)  # data_id required
        finally:
            service.close()

    def test_query_kinds_constant(self):
        assert QUERY_KINDS == ("deep", "reverse", "zoom")


class TestServiceBehaviour:
    def test_result_cache_serves_repeats(self, spec, run, joe):
        warehouse = SqliteWarehouse()
        _spec_id, run_id = _loaded(warehouse, spec, run)
        output = sorted(warehouse.final_outputs(run_id))[0]
        service = QueryService(warehouse, workers=2)
        try:
            with service:
                first = service.query("deep", run_id, data_id=output, view=joe)
                again = service.query("deep", run_id, data_id=output, view=joe)
            assert first is again  # cache returns the same object
            assert service._results.stats().hits >= 1
        finally:
            service.close()
            warehouse.close()

    def test_stats_shape(self, spec, run):
        warehouse = InMemoryWarehouse()
        _spec_id, run_id = _loaded(warehouse, spec, run)
        output = sorted(warehouse.final_outputs(run_id))[0]
        service = QueryService(warehouse, workers=2)
        try:
            with service:
                service.query("deep", run_id, data_id=output)
            stats = service.stats()
        finally:
            service.close()
        assert stats["workers"] == 2
        assert stats["completed"] >= 1
        assert stats["qps"] > 0
        assert set(stats["latency_ms"]) == {"p50", "p95", "p99"}
        assert stats["cache"]["misses"] >= 1

    def test_session_serve_shares_reasoner(self, spec, run):
        warehouse = InMemoryWarehouse()
        spec_id, run_id = _loaded(warehouse, spec, run)
        output = sorted(warehouse.final_outputs(run_id))[0]
        session = Session(warehouse, spec_id)
        service = session.serve(workers=1)
        try:
            assert service.reasoner is session.reasoner
            with service:
                service.query("deep", run_id, data_id=output)
                assert len(service._results) == 1
                # Invalidating through the *session* clears the service too.
                session.invalidate_run(run_id)
                assert len(service._results) == 0
        finally:
            service.close()

    def test_constructor_validation(self, spec, run):
        warehouse = InMemoryWarehouse()
        _loaded(warehouse, spec, run)
        with pytest.raises(ValueError):
            QueryService(warehouse, workers=0)
        with pytest.raises(ValueError):
            QueryService(warehouse, queue_size=0)

    def test_stop_is_idempotent_and_restartable(self, spec, run):
        warehouse = InMemoryWarehouse()
        _spec_id, run_id = _loaded(warehouse, spec, run)
        output = sorted(warehouse.final_outputs(run_id))[0]
        service = QueryService(warehouse, workers=1)
        try:
            service.start()
            service.start()  # idempotent
            service.query("deep", run_id, data_id=output)
            service.stop()
            service.stop()  # idempotent
            service.start()  # restartable
            service.query("deep", run_id, data_id=output)
            service.stop()
        finally:
            service.close()
