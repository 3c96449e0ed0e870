"""Conformance tests run against both warehouse backends.

Every test in this module is parametrised over the in-memory and SQLite
backends: the two implementations must be observationally identical, which
is also checked directly by comparing their recursive-closure answers.
"""

from __future__ import annotations

import pytest

from repro.core.errors import UnknownEntityError, WarehouseError
from repro.core.spec import INPUT, linear_spec
from repro.core.view import admin_view
from repro.run.log import log_from_run
from repro.warehouse.memory import InMemoryWarehouse
from repro.warehouse.sqlite import SqliteWarehouse
from repro.workloads.phylogenomic import joe_view, phylogenomic_run, phylogenomic_spec


@pytest.fixture(params=["memory", "sqlite"])
def warehouse(request):
    if request.param == "memory":
        yield InMemoryWarehouse()
    else:
        with SqliteWarehouse() as backend:
            yield backend


@pytest.fixture
def loaded(warehouse):
    """A warehouse preloaded with the paper example; returns the ids."""
    spec = phylogenomic_spec()
    run = phylogenomic_run(spec)
    spec_id = warehouse.store_spec(spec)
    run_id = warehouse.store_run(run, spec_id)
    return warehouse, spec, run, spec_id, run_id


class TestSpecStorage:
    def test_round_trip(self, loaded):
        warehouse, spec, _run, spec_id, _run_id = loaded
        assert warehouse.get_spec(spec_id) == spec
        assert warehouse.list_specs() == [spec_id]

    def test_duplicate_id_rejected(self, loaded):
        warehouse, spec, _run, _spec_id, _run_id = loaded
        with pytest.raises(WarehouseError, match="already stored"):
            warehouse.store_spec(spec)

    def test_unknown_spec(self, warehouse):
        with pytest.raises(UnknownEntityError):
            warehouse.get_spec("nope")

    def test_explicit_id(self, warehouse):
        spec_id = warehouse.store_spec(linear_spec(2), spec_id="custom")
        assert spec_id == "custom"
        assert warehouse.get_spec("custom").name == "linear"


class TestViewStorage:
    def test_round_trip(self, loaded):
        warehouse, spec, _run, spec_id, _run_id = loaded
        view_id = warehouse.store_view(joe_view(spec), spec_id)
        restored = warehouse.get_view(view_id)
        assert restored == joe_view(spec)
        assert restored.name == "Joe"
        assert warehouse.list_views() == [view_id]
        assert warehouse.list_views(spec_id) == [view_id]
        assert warehouse.list_views("other") == []

    def test_view_must_match_stored_spec(self, loaded):
        warehouse, _spec, _run, spec_id, _run_id = loaded
        other = admin_view(linear_spec(2))
        with pytest.raises(WarehouseError, match="does not match"):
            warehouse.store_view(other, spec_id)

    def test_unknown_view(self, warehouse):
        with pytest.raises(UnknownEntityError):
            warehouse.get_view("nope")


class TestRunStorage:
    def test_round_trip(self, loaded):
        warehouse, _spec, run, spec_id, run_id = loaded
        rebuilt = warehouse.get_run(run_id)
        rebuilt.validate()
        assert set(rebuilt.edges()) == set(run.edges())
        assert warehouse.list_runs() == [run_id]
        assert warehouse.list_runs(spec_id) == [run_id]
        assert warehouse.run_spec_id(run_id) == spec_id

    def test_store_via_log(self, loaded):
        warehouse, spec, run, spec_id, _run_id = loaded
        log = log_from_run(run)
        run_id = warehouse.store_log(log, spec_id, run_id="from-log")
        rebuilt = warehouse.get_run(run_id)
        assert set(rebuilt.edges()) == set(run.edges())

    def test_run_must_match_spec(self, warehouse):
        spec_id = warehouse.store_spec(linear_spec(2))
        run = phylogenomic_run()
        with pytest.raises(WarehouseError, match="does not match"):
            warehouse.store_run(run, spec_id)

    def test_duplicate_run_id_rejected(self, loaded):
        warehouse, _spec, run, spec_id, run_id = loaded
        with pytest.raises(WarehouseError, match="already stored"):
            warehouse.store_run(run, spec_id, run_id=run_id)

    def test_unknown_run(self, warehouse):
        with pytest.raises(UnknownEntityError):
            warehouse.run_spec_id("nope")
        with pytest.raises(UnknownEntityError):
            warehouse.steps_of_run("nope")


class TestPrimitives:
    def test_steps_and_io(self, loaded):
        warehouse, _spec, run, _spec_id, run_id = loaded
        steps = dict(warehouse.steps_of_run(run_id))
        assert steps["S2"] == "M3"
        assert len(steps) == 10
        io = warehouse.io_rows(run_id)
        assert ("S6", "d412", "in") in io
        assert ("S6", "d413", "out") in io

    def test_producer_of(self, loaded):
        warehouse, _spec, _run, _spec_id, run_id = loaded
        assert warehouse.producer_of(run_id, "d413") == "S6"
        assert warehouse.producer_of(run_id, "d1") == INPUT
        with pytest.raises(UnknownEntityError):
            warehouse.producer_of(run_id, "d9999")

    def test_step_io(self, loaded):
        warehouse, _spec, _run, _spec_id, run_id = loaded
        assert warehouse.step_inputs(run_id, "S6") == {"d412"}
        assert warehouse.step_outputs(run_id, "S6") == {"d413"}
        assert warehouse.module_of_step(run_id, "S6") == "M4"
        with pytest.raises(UnknownEntityError):
            warehouse.step_inputs(run_id, "S99")
        with pytest.raises(UnknownEntityError):
            warehouse.module_of_step(run_id, "S99")

    def test_boundaries(self, loaded):
        warehouse, _spec, run, _spec_id, run_id = loaded
        assert warehouse.user_inputs(run_id) == run.user_inputs()
        assert warehouse.final_outputs(run_id) == {"d447"}


class TestRecursiveClosure:
    def test_full_lineage_of_final_output(self, loaded):
        warehouse, _spec, run, _spec_id, run_id = loaded
        result = warehouse.admin_deep_provenance(run_id, "d447")
        assert len(result.steps()) == 10
        assert result.user_inputs == run.user_inputs()
        # d447's producer row is present.
        assert any(row.step_id == "S10" for row in result.rows)

    def test_partial_lineage(self, loaded):
        warehouse, _spec, _run, _spec_id, run_id = loaded
        result = warehouse.admin_deep_provenance(run_id, "d410")
        assert result.steps() == {"S1", "S2", "S3"}
        assert result.user_inputs == {"d%d" % index for index in range(1, 101)}

    def test_user_input_lineage(self, loaded):
        warehouse, _spec, _run, _spec_id, run_id = loaded
        result = warehouse.admin_deep_provenance(run_id, "d1")
        assert result.num_tuples() == 0
        assert result.user_inputs == {"d1"}

    def test_unknown_data_rejected(self, loaded):
        warehouse, _spec, _run, _spec_id, run_id = loaded
        with pytest.raises(UnknownEntityError):
            warehouse.admin_deep_provenance(run_id, "d9999")


class TestBackendEquivalence:
    """The two backends must return identical answers."""

    def test_closures_identical(self):
        spec = phylogenomic_spec()
        run = phylogenomic_run(spec)
        memory = InMemoryWarehouse()
        with SqliteWarehouse() as sqlite:
            for backend in (memory, sqlite):
                spec_id = backend.store_spec(spec)
                backend.store_run(run, spec_id)
            for data_id in ("d447", "d413", "d410", "d446", "d1"):
                mem_result = memory.admin_deep_provenance("phylogenomic-run", data_id)
                sql_result = sqlite.admin_deep_provenance("phylogenomic-run", data_id)
                assert mem_result == sql_result

    def test_reconstructed_runs_identical(self):
        spec = phylogenomic_spec()
        run = phylogenomic_run(spec)
        memory = InMemoryWarehouse()
        with SqliteWarehouse() as sqlite:
            for backend in (memory, sqlite):
                spec_id = backend.store_spec(spec)
                backend.store_run(run, spec_id)
            mem_run = memory.get_run("phylogenomic-run")
            sql_run = sqlite.get_run("phylogenomic-run")
            assert set(mem_run.edges()) == set(sql_run.edges())


class TestSqliteSpecifics:
    def test_file_persistence(self, tmp_path):
        path = str(tmp_path / "warehouse.sqlite")
        spec = linear_spec(3)
        with SqliteWarehouse(path) as warehouse:
            spec_id = warehouse.store_spec(spec)
        with SqliteWarehouse(path) as warehouse:
            assert warehouse.get_spec(spec_id) == spec

    @pytest.mark.parametrize("manifest", [False, True],
                             ids=["empty", "old-federation"])
    def test_directory_path_raises_warehouse_error(self, tmp_path, manifest):
        directory = tmp_path / "fed"
        directory.mkdir()
        if manifest:
            (directory / "shard_manifest.json").write_text("{}")
        with pytest.raises(WarehouseError, match="is a directory") as caught:
            SqliteWarehouse(str(directory))
        message = str(caught.value)
        assert str(directory) in message
        assert ("shard-NNN.db" in message) == manifest

    def test_multiple_producers_is_corruption_not_a_coin_flip(self):
        """A bare fetchone() used to pick one producer nondeterministically;
        a corrupt io table must be reported, not silently queried."""
        spec = phylogenomic_spec()
        run = phylogenomic_run(spec)
        with SqliteWarehouse() as backend:
            spec_id = backend.store_spec(spec)
            run_id = backend.store_run(run, spec_id)
            assert backend.producer_of(run_id, "d413") == "S6"
            # Corrupt the table directly: a second producer for d413.
            backend._conn.execute(
                "INSERT INTO io (run_id, step_id, data_id, direction)"
                " VALUES (?, ?, ?, ?)",
                (run_id, "S2", "d413", "out"),
            )
            with pytest.raises(WarehouseError, match="2 producing steps"):
                backend.producer_of(run_id, "d413")

    def test_file_warehouse_uses_wal_and_busy_timeout(self, tmp_path):
        path = str(tmp_path / "wal.sqlite")
        with SqliteWarehouse(path) as backend:
            (mode,) = backend._conn.execute("PRAGMA journal_mode").fetchone()
            assert mode == "wal"
            (timeout,) = backend._conn.execute("PRAGMA busy_timeout").fetchone()
            assert timeout == 5000

    def test_timing_counts_sql_statements(self):
        from repro.obs import MetricsRegistry, set_registry

        registry = MetricsRegistry()
        previous = set_registry(registry)
        try:
            with SqliteWarehouse(timing=True) as backend:
                backend.store_spec(linear_spec(2))
            assert registry.counter("warehouse.sql").value > 0
        finally:
            set_registry(previous)


class TestOlderWarehouses:
    """Files written before the closure index was retired still open."""

    OLD_DDL = (
        "CREATE TABLE lineage (run_id TEXT NOT NULL REFERENCES"
        " run_def(run_id), data_id TEXT NOT NULL, step_id TEXT NOT NULL,"
        " data_in TEXT NOT NULL,"
        " PRIMARY KEY (run_id, data_id, step_id, data_in)) WITHOUT ROWID",
        "CREATE TABLE lineage_meta (run_id TEXT PRIMARY KEY REFERENCES"
        " run_def(run_id), row_count INTEGER NOT NULL)",
    )

    @staticmethod
    def answers(warehouse, run_id, spec, targets):
        from repro.provenance.reasoner import ProvenanceReasoner

        out = {}
        for strategy in ("cached", "uncached", "labeled"):
            reasoner = ProvenanceReasoner(warehouse, strategy=strategy)
            for view in (None, joe_view(spec)):
                for data_id in targets:
                    out[strategy, view is None, data_id] = reasoner.deep(
                        run_id, data_id, view=view
                    )
        return out

    def test_leftover_lineage_tables_are_dropped_on_open(self, tmp_path):
        import sqlite3

        path = str(tmp_path / "old.sqlite")
        spec = phylogenomic_spec()
        run = phylogenomic_run(spec)
        targets = sorted(run.final_outputs() | run.user_inputs())
        with SqliteWarehouse(path) as warehouse:
            run_id = warehouse.store_run(run, warehouse.store_spec(spec))
            before = self.answers(warehouse, run_id, spec, targets)
            warehouse.drop_label_index()
        # What an older version left behind: the closure tables, holding
        # rows that would change the answers if anything still read them.
        raw = sqlite3.connect(path)
        with raw:
            for statement in self.OLD_DDL:
                raw.execute(statement)
            raw.execute(
                "INSERT INTO lineage VALUES (?, ?, 'S1', 'bogus')",
                (run_id, targets[0]),
            )
            raw.execute("INSERT INTO lineage_meta VALUES (?, 1)", (run_id,))
        raw.close()

        with SqliteWarehouse(path) as warehouse:
            tables = {
                name for (name,) in warehouse._conn.execute(
                    "SELECT name FROM sqlite_master WHERE type = 'table'"
                )
            }
            assert not tables & {"lineage", "lineage_meta"}
            assert self.answers(warehouse, run_id, spec, targets) == before
            labeled = {k: v for k, v in before.items() if k[0] == "labeled"}
            assert {k[1:]: v for k, v in labeled.items()} == {
                k[1:]: v for k, v in before.items() if k[0] == "uncached"
            }
            warehouse.delete_run(run_id)
            assert warehouse.list_runs() == []
