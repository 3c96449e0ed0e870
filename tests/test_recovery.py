"""Chaos tests for crash-safe ingestion (journal, recovery, quarantine).

The central guarantee under test: for every fault the injection harness
of :mod:`repro.faults` can schedule — a hard kill mid-transaction, a kill
between batch commit and journal mark, a transient SQLite lock, a corrupt
run — the warehouse either
finishes the load (retry), isolates the damage (quarantine) or is left in
a state from which ``recover()`` + ``load_dataset(resume=True)`` converge
to *exactly* the contents an uninterrupted load produces.
"""

from __future__ import annotations

import random
import sqlite3

import pytest

from repro.core.errors import RunError, WarehouseError
from repro.faults import SITES, FaultPlan, InjectedCrash
from repro.lint import lint_warehouse
from repro.obs import MetricsRegistry, set_registry
from repro.obs.retry import with_retries
from repro.warehouse.loader import load_dataset
from repro.warehouse.memory import InMemoryWarehouse
from repro.warehouse.recovery import (
    JOURNAL_PENDING,
    checksum_stored_run,
    event_index_of,
    recover,
    retry_quarantined,
)
from repro.warehouse.sqlite import SqliteWarehouse
from repro.workloads.classes import RUN_CLASSES, WORKFLOW_CLASSES
from repro.workloads.generator import generate_workflow
from repro.workloads.runs import generate_run
from repro.zoom.cli import main

BATCH = 3


def small_workload(n_specs=2, n_runs=4, size=10, seed=11):
    """Generated specs with runs, the shape load_dataset ingests."""
    rng = random.Random(seed)
    classes = sorted(WORKFLOW_CLASSES)
    items = []
    for i in range(n_specs):
        generated = generate_workflow(
            WORKFLOW_CLASSES[classes[i % len(classes)]], rng,
            target_size=size, name="wf%d" % i,
        )
        runs = [
            generate_run(generated.spec, RUN_CLASSES["small"], rng,
                         run_id="r%d" % n)
            for n in range(n_runs)
        ]
        items.append((generated.spec, runs))
    return items


def fingerprint(warehouse):
    """Backend-independent observable state, content-addressed.

    Run rows enter as order-independent checksums, journal entries as
    (state, checksum) — batch numbers are deliberately excluded, because
    a resumed load legitimately re-batches the remaining work.
    """
    return {
        "specs": sorted(warehouse.list_specs()),
        "views": sorted(warehouse.list_views()),
        "runs": {
            run_id: checksum_stored_run(warehouse, run_id)
            for run_id in warehouse.list_runs()
        },
        "journal": {
            entry.run_id: (entry.state, entry.checksum)
            for entry in warehouse.journal_entries()
        },
        "quarantine": warehouse.quarantine_list(),
    }


def make_warehouse(backend, tmp_path, faults=None):
    if backend == "memory":
        return InMemoryWarehouse(faults=faults)
    return SqliteWarehouse(str(tmp_path / "chaos.sqlite"), faults=faults)


def reopen(backend, tmp_path, warehouse):
    """Simulate process death + restart: only the file survives."""
    if backend == "memory":
        # No medium to reopen from; dropping the plan is the restart.
        warehouse.faults = None
        return warehouse
    warehouse.close()
    return SqliteWarehouse(str(tmp_path / "chaos.sqlite"))


@pytest.fixture
def registry():
    """A fresh default metrics registry, restored afterwards."""
    fresh = MetricsRegistry()
    previous = set_registry(fresh)
    yield fresh
    set_registry(previous)


@pytest.fixture(scope="module")
def workload():
    return small_workload()


@pytest.fixture(scope="module")
def reference(workload):
    """Fingerprint of an uninterrupted pipeline load of the workload."""
    registry = MetricsRegistry()
    previous = set_registry(registry)
    try:
        warehouse = InMemoryWarehouse()
        load_dataset(warehouse, workload, batch_size=BATCH)
        return fingerprint(warehouse)
    finally:
        set_registry(previous)


class TestCrashPoints:
    """Every injectable kill leaves a resumable, convergent warehouse."""

    @pytest.mark.parametrize("backend", ["sqlite", "memory"])
    @pytest.mark.parametrize(
        "site", ["store_many.mid", "journal.pending", "journal.mark"]
    )
    def test_crash_recover_resume_converges(
        self, site, backend, workload, reference, registry, tmp_path
    ):
        plan = FaultPlan().crash_at(site)
        warehouse = make_warehouse(backend, tmp_path, faults=plan)
        with pytest.raises(InjectedCrash):
            load_dataset(warehouse, workload, batch_size=BATCH)
        assert plan.fired == ["crash:%s" % site]

        warehouse = reopen(backend, tmp_path, warehouse)
        recover(warehouse)
        load_dataset(warehouse, workload, batch_size=BATCH, resume=True)
        assert fingerprint(warehouse) == reference

    @pytest.mark.parametrize("backend", ["sqlite", "memory"])
    @pytest.mark.parametrize(
        "site", ["store_many.mid", "journal.pending", "journal.mark"]
    )
    def test_resume_alone_converges(
        self, site, backend, workload, reference, registry, tmp_path
    ):
        """resume=True runs recovery itself; no explicit recover() needed."""
        plan = FaultPlan().crash_at(site, hit=2)
        warehouse = make_warehouse(backend, tmp_path, faults=plan)
        with pytest.raises(InjectedCrash):
            load_dataset(warehouse, workload, batch_size=BATCH)

        warehouse = reopen(backend, tmp_path, warehouse)
        load_dataset(warehouse, workload, batch_size=BATCH, resume=True)
        assert fingerprint(warehouse) == reference

    def test_post_commit_pre_mark_rolls_forward(
        self, workload, registry, tmp_path
    ):
        """A kill between batch commit and journal mark: the runs are
        stored and hash clean, so recover() marks them committed."""
        plan = FaultPlan().crash_at("journal.mark")
        warehouse = make_warehouse("sqlite", tmp_path, faults=plan)
        with pytest.raises(InjectedCrash):
            load_dataset(warehouse, workload, batch_size=BATCH)

        warehouse = reopen("sqlite", tmp_path, warehouse)
        stored = set(warehouse.list_runs())
        pending = {
            e.run_id for e in warehouse.journal_entries(JOURNAL_PENDING)
        }
        assert pending and pending <= stored

        report = recover(warehouse)
        assert sorted(report.marked_committed) == sorted(pending)
        assert not report.rolled_back and not report.torn_journal
        assert registry.counter("recovery.marked_committed").value == len(pending)
        assert not warehouse.journal_entries(JOURNAL_PENDING)

    def test_mid_transaction_crash_leaves_torn_journal(
        self, workload, registry, tmp_path
    ):
        """A kill inside the store transaction: SQLite rolls the batch
        back, the pending journal rows truthfully record the torn work."""
        plan = FaultPlan().crash_at("store_many.mid")
        warehouse = make_warehouse("sqlite", tmp_path, faults=plan)
        with pytest.raises(InjectedCrash):
            load_dataset(warehouse, workload, batch_size=BATCH)

        warehouse = reopen("sqlite", tmp_path, warehouse)
        assert warehouse.list_runs() == []
        report = recover(warehouse)
        assert len(report.torn_journal) == BATCH
        assert not report.marked_committed and not report.rolled_back

    def test_half_published_memory_batch_settles_by_checksum(
        self, workload, reference, registry
    ):
        """The dict backend has no transaction: a mid-batch kill leaves
        the batch half-published.  recover() rolls the complete runs
        forward and leaves the rest torn for the resume."""
        plan = FaultPlan().crash_at("store_many.mid")
        warehouse = InMemoryWarehouse(faults=plan)
        with pytest.raises(InjectedCrash):
            load_dataset(warehouse, workload, batch_size=BATCH)

        warehouse.faults = None
        assert len(warehouse.list_runs()) == 1  # the one published record
        report = recover(warehouse)
        assert len(report.marked_committed) == 1
        assert len(report.torn_journal) == BATCH - 1

        load_dataset(warehouse, workload, batch_size=BATCH, resume=True)
        assert fingerprint(warehouse) == reference

    def test_corrupt_stored_run_rolled_back_then_reingested(
        self, workload, reference, registry, tmp_path
    ):
        """A pending run whose stored rows mismatch the journalled
        checksum is half-applied garbage: deleted and re-ingested."""
        plan = FaultPlan().crash_at("journal.mark")
        warehouse = make_warehouse("sqlite", tmp_path, faults=plan)
        with pytest.raises(InjectedCrash):
            load_dataset(warehouse, workload, batch_size=BATCH)
        warehouse = reopen("sqlite", tmp_path, warehouse)

        victim = warehouse.journal_entries(JOURNAL_PENDING)[0].run_id
        with warehouse._conn:
            warehouse._conn.execute(
                "DELETE FROM io WHERE run_id = ?", (victim,)
            )
        report = recover(warehouse)
        assert victim in report.rolled_back
        assert victim not in warehouse.list_runs()
        assert registry.counter("recovery.rolled_back").value == 1

        load_dataset(warehouse, workload, batch_size=BATCH, resume=True)
        assert fingerprint(warehouse) == reference

    def test_bulk_rebuild_crash_repaired_at_reopen(
        self, workload, reference, registry, tmp_path
    ):
        """Data is committed but the io secondary indexes are gone (a
        crash or an out-of-band edit dropped them); the startup probe
        recreates them at reopen and the load resumes.
        """
        plan = FaultPlan().crash_at("store_many.mid", hit=2)
        warehouse = SqliteWarehouse(str(tmp_path / "chaos.sqlite"), faults=plan)
        with pytest.raises(InjectedCrash):
            load_dataset(warehouse, workload, batch_size=BATCH)

        warehouse.close()
        raw = sqlite3.connect(str(tmp_path / "chaos.sqlite"))
        with raw:
            raw.execute("DROP INDEX io_by_data")
            raw.execute("DROP INDEX io_by_step")
        names = {
            name for (name,) in raw.execute(
                "SELECT name FROM sqlite_master WHERE type = 'index'"
                " AND name LIKE 'io_by_%'"
            )
        }
        raw.close()
        assert names == set()

        warehouse = SqliteWarehouse(str(tmp_path / "chaos.sqlite"))
        assert sorted(warehouse.repaired_indexes) == ["io_by_data", "io_by_step"]
        assert warehouse.integrity_report()["missing_indexes"] == []

        load_dataset(warehouse, workload, batch_size=BATCH, resume=True)
        assert fingerprint(warehouse) == reference


class TestResume:
    def test_resume_skips_committed_runs(
        self, workload, reference, registry, tmp_path
    ):
        plan = FaultPlan().crash_at("store_many.mid", hit=2)
        warehouse = make_warehouse("sqlite", tmp_path, faults=plan)
        with pytest.raises(InjectedCrash):
            load_dataset(warehouse, workload, batch_size=BATCH)
        warehouse = reopen("sqlite", tmp_path, warehouse)
        committed = warehouse.list_runs()
        assert committed  # first batch landed before the crash

        resume_registry = MetricsRegistry()
        set_registry(resume_registry)
        load_dataset(warehouse, workload, batch_size=BATCH, resume=True)
        total = sum(len(runs) for _spec, runs in workload)
        assert resume_registry.counter("ingest.skipped").value == len(committed)
        assert (
            resume_registry.counter("ingest.runs").value
            == total - len(committed)
        )
        assert fingerprint(warehouse) == reference

    def test_resume_of_clean_warehouse_is_idempotent(
        self, workload, reference, registry, tmp_path
    ):
        warehouse = make_warehouse("sqlite", tmp_path)
        load_dataset(warehouse, workload, batch_size=BATCH)
        load_dataset(warehouse, workload, batch_size=BATCH, resume=True)
        assert fingerprint(warehouse) == reference
        assert registry.counter("ingest.skipped").value == sum(
            len(runs) for _spec, runs in workload
        )

    def test_abort_reports_committed_run_ids(
        self, workload, registry, tmp_path
    ):
        """Satellite: a mid-dataset failure names what already landed."""
        first_spec = workload[0][0].name
        plan = FaultPlan().fail_run("%s/run4" % first_spec)
        warehouse = make_warehouse("sqlite", tmp_path, faults=plan)
        with pytest.raises(
            RunError, match=r"committed before failure: %s/run1" % first_spec
        ):
            load_dataset(warehouse, workload, batch_size=BATCH)


class TestTransientLocks:
    @pytest.mark.parametrize("backend", ["sqlite", "memory"])
    def test_injected_locks_are_retried_to_success(
        self, backend, workload, reference, registry, tmp_path
    ):
        plan = FaultPlan().lock_at("store_many.begin", times=2)
        warehouse = make_warehouse(backend, tmp_path, faults=plan)
        load_dataset(warehouse, workload, batch_size=BATCH)
        assert plan.fired == ["lock:store_many.begin"] * 2
        assert registry.counter("retry.attempts").value == 2
        assert registry.counter("retry.giveup").value == 0
        assert fingerprint(warehouse) == reference


class TestQuarantine:
    @pytest.mark.parametrize("backend", ["sqlite", "memory"])
    def test_corrupt_run_never_aborts_the_dataset(
        self, backend, workload, reference, registry, tmp_path
    ):
        first_spec = workload[0][0].name
        victim = "%s/run2" % first_spec
        plan = FaultPlan().fail_run(victim)
        warehouse = make_warehouse(backend, tmp_path, faults=plan)
        records = load_dataset(
            warehouse, workload, batch_size=BATCH, on_error="quarantine"
        )

        total = sum(len(runs) for _spec, runs in workload)
        assert sum(len(r.run_ids) for r in records) == total - 1
        assert victim not in warehouse.list_runs()
        assert warehouse.quarantine_list() == [victim]
        assert registry.counter("ingest.quarantined").value == 1
        record = warehouse.quarantine_get(victim)
        assert "injected corrupt run" in record.reason

        outcomes = retry_quarantined(warehouse)
        assert outcomes == {victim: "stored"}
        assert warehouse.quarantine_list() == []
        assert fingerprint(warehouse) == reference

    def test_event_index_extraction(self):
        assert event_index_of(RunError("event 7 (step): bad module")) == 7
        assert event_index_of(RunError("no index here")) is None
        exc = RunError("boom")
        exc.event_index = 3
        assert event_index_of(exc) == 3


class TestLintRules:
    def test_wh041_flags_torn_journal_then_resume_clears_it(
        self, workload, registry, tmp_path
    ):
        plan = FaultPlan().crash_at("journal.pending")
        warehouse = make_warehouse("sqlite", tmp_path, faults=plan)
        with pytest.raises(InjectedCrash):
            load_dataset(warehouse, workload, batch_size=BATCH)
        warehouse = reopen("sqlite", tmp_path, warehouse)

        findings = [
            f for f in lint_warehouse(warehouse) if f.rule_id == "WH041"
        ]
        assert len(findings) == BATCH
        assert "torn ingest" in findings[0].message

        load_dataset(warehouse, workload, batch_size=BATCH, resume=True)
        assert not [
            f for f in lint_warehouse(warehouse) if f.rule_id == "WH041"
        ]

    def test_wh040_flags_missing_index_and_repair_clears_it(
        self, workload, registry, tmp_path
    ):
        warehouse = make_warehouse("sqlite", tmp_path)
        load_dataset(warehouse, workload, batch_size=BATCH)
        warehouse._conn.execute("DROP INDEX io_by_data")

        findings = [
            f for f in lint_warehouse(warehouse) if f.rule_id == "WH040"
        ]
        assert [f.subject for f in findings] == ["io_by_data"]

        report = warehouse.integrity_report(repair=True)
        assert report["repaired"] == ["io_by_data"]
        assert not [
            f for f in lint_warehouse(warehouse) if f.rule_id == "WH040"
        ]

    def test_memory_backend_has_no_physical_findings(self, workload, registry):
        warehouse = InMemoryWarehouse()
        load_dataset(warehouse, workload, batch_size=BATCH)
        assert not [
            f for f in lint_warehouse(warehouse)
            if f.rule_id in ("WH040", "WH041")
        ]


class TestStoreManyAtomicity:
    """Satellite: a failing batch leaves the warehouse untouched."""

    def _one_prepared(self, warehouse, workload, run_id):
        from repro.warehouse.pipeline import _PrepareTask, prepare_run

        spec, runs = workload[0]
        spec_id = warehouse.store_spec(spec)
        return prepare_run(_PrepareTask(
            run=runs[0].run, spec_id=spec_id, run_id=run_id,
        ))

    @pytest.mark.parametrize("backend", ["sqlite", "memory"])
    def test_duplicate_in_batch_stores_nothing(
        self, backend, workload, registry, tmp_path
    ):
        warehouse = make_warehouse(backend, tmp_path)
        prepared = self._one_prepared(warehouse, workload, "dup/run1")
        warehouse.store_many([prepared])
        fresh = self._clone(prepared, "dup/run2")
        with pytest.raises(WarehouseError):
            warehouse.store_many([fresh, self._clone(prepared, "dup/run1")])
        assert "dup/run2" not in warehouse.list_runs()

    def test_sqlite_constraint_violation_rolls_batch_back(
        self, workload, registry, tmp_path
    ):
        warehouse = make_warehouse("sqlite", tmp_path)
        prepared = self._one_prepared(warehouse, workload, "dup/run1")
        bad = self._clone(prepared, "dup/run2")
        bad.step_rows = bad.step_rows + [bad.step_rows[0]]  # PK violation
        with pytest.raises(sqlite3.IntegrityError):
            warehouse.store_many([self._clone(prepared, "dup/run3"), bad])
        assert warehouse.list_runs() == []

    @staticmethod
    def _clone(prepared, run_id):
        from dataclasses import replace

        return replace(prepared, run_id=run_id)


class TestWithRetries:
    def test_exhaustion_reraises_and_counts(self, registry):
        delays = []

        @with_retries(attempts=4, sleeper=delays.append,
                      rng=random.Random(0))
        def always_locked():
            raise sqlite3.OperationalError("database is locked")

        with pytest.raises(sqlite3.OperationalError, match="locked"):
            always_locked()
        assert len(delays) == 3  # a sleep before each retry
        assert delays == sorted(delays)  # exponential backoff
        assert registry.counter("retry.attempts").value == 3
        assert registry.counter("retry.giveup").value == 1

    def test_non_transient_errors_are_not_retried(self, registry):
        delays = []

        @with_retries(attempts=4, sleeper=delays.append)
        def broken_schema():
            raise sqlite3.OperationalError("no such table: io")

        with pytest.raises(sqlite3.OperationalError, match="no such table"):
            broken_schema()
        assert delays == []
        assert registry.counter("retry.attempts").value == 0

    def test_recovers_after_transient_failures(self, registry):
        state = {"left": 2}

        @with_retries(attempts=5, sleeper=lambda _s: None,
                      rng=random.Random(1))
        def flaky():
            if state["left"] > 0:
                state["left"] -= 1
                raise sqlite3.OperationalError("database is busy")
            return "done"

        assert flaky() == "done"
        assert registry.counter("retry.attempts").value == 2
        assert registry.counter("retry.giveup").value == 0


class TestFaultPlan:
    def test_unknown_site_is_rejected(self):
        with pytest.raises(ValueError, match="unknown fault site"):
            FaultPlan().crash_at("no.such.site")

    def test_known_sites_are_stable(self):
        assert set(SITES) == {
            "store_many.begin", "store_many.mid", "journal.pending",
            "journal.mark",
            "stream.epoch.pending", "stream.append", "stream.epoch.mark",
            "stream.finalize",
        }

    def test_pending_reports_unfired_faults(self):
        plan = FaultPlan().crash_at("journal.mark").fail_run("r1")
        pending = plan.pending()
        assert pending["crash"] == {"journal.mark": 1}
        assert pending["fail_run"] == {"r1": "injected corrupt run 'r1'"}


class TestCli:
    @pytest.fixture
    def spec_file(self, tmp_path):
        path = str(tmp_path / "spec.json")
        assert main(["generate", "--class", "Class1", "--size", "8",
                     "--seed", "3", "--name", "demo", "--out", path]) == 0
        return path

    def test_recover_on_clean_warehouse(
        self, spec_file, registry, tmp_path, capsys
    ):
        db = str(tmp_path / "wh.sqlite")
        assert main(["load", "--db", db, "--spec", spec_file,
                     "--runs", "2", "--batch", "2"]) == 0
        assert main(["recover", "--db", db]) == 0
        out = capsys.readouterr().out
        assert "integrity: ok" in out
        assert "journal: clean" in out

    def test_load_resume_continues_after_torn_journal(
        self, spec_file, registry, tmp_path, capsys
    ):
        db = str(tmp_path / "wh.sqlite")
        assert main(["load", "--db", db, "--spec", spec_file,
                     "--runs", "2", "--batch", "2"]) == 0
        with sqlite3.connect(db) as raw:
            raw.execute(
                "INSERT INTO _ingest_journal VALUES"
                " ('demo/run9', 'demo', 'feed', 9, 'pending')"
            )
        assert main(["recover", "--db", db]) == 0
        assert "torn journal" in capsys.readouterr().out
        assert main(["load", "--db", db, "--spec", spec_file,
                     "--runs", "4", "--resume"]) == 0
        out = capsys.readouterr().out
        assert "stored demo/run4" in out
        with SqliteWarehouse(db) as warehouse:
            assert len(warehouse.list_runs()) == 4

    def test_quarantine_list_show_retry(self, registry, tmp_path, capsys):
        db = str(tmp_path / "wh.sqlite")
        workload = small_workload(n_specs=1, n_runs=3)
        victim = "%s/run2" % workload[0][0].name
        with SqliteWarehouse(db, faults=FaultPlan().fail_run(victim)) as wh:
            load_dataset(wh, workload, batch_size=2, on_error="quarantine")

        assert main(["quarantine", "list", "--db", db]) == 0
        assert victim in capsys.readouterr().out
        assert main(["quarantine", "show", "--db", db,
                     "--run-id", victim]) == 0
        assert "injected corrupt run" in capsys.readouterr().out
        assert main(["quarantine", "retry", "--db", db]) == 0
        assert "stored" in capsys.readouterr().out
        assert main(["quarantine", "list", "--db", db]) == 0
        assert "quarantine empty" in capsys.readouterr().out
        with SqliteWarehouse(db) as warehouse:
            assert victim in warehouse.list_runs()

    def test_quarantine_show_requires_run_id(self, registry, tmp_path):
        db = str(tmp_path / "wh.sqlite")
        SqliteWarehouse(db).close()
        assert main(["quarantine", "show", "--db", db]) == 2
