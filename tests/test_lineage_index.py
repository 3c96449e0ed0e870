"""SQLite query plans of the lineage queries.

Deep provenance is the recursive closure over the ``io`` relation; these
checks run ``EXPLAIN QUERY PLAN`` over it and over the point lookups the
warehouse issues, so every hot lookup stays an index search, never a
table scan.
"""

from __future__ import annotations

import pytest

from repro.warehouse.sqlite import SqliteWarehouse
from repro.workloads.phylogenomic import phylogenomic_run, phylogenomic_spec


class TestSqliteQueryPlans:
    """EXPLAIN QUERY PLAN: every hot lookup is a search, never a scan."""

    @pytest.fixture
    def sqlite(self):
        spec = phylogenomic_spec()
        run = phylogenomic_run(spec)
        with SqliteWarehouse() as warehouse:
            run_id = warehouse.store_run(run, warehouse.store_spec(spec))
            yield warehouse, run_id

    def _plan(self, warehouse, sql, params):
        cursor = warehouse._conn.execute("EXPLAIN QUERY PLAN " + sql, params)
        return [row[-1] for row in cursor.fetchall()]

    def _assert_no_table_scan(self, details):
        # "SCAN lineage" over the recursive CTE is fine; scanning a base
        # table is not.
        for detail in details:
            for table in ("io", "step", "annotation", "user_input"):
                assert not detail.startswith("SCAN %s" % table), detail

    def test_recursive_closure_uses_the_io_indexes(self, sqlite):
        from repro.warehouse.schema import SQLITE_DEEP_PROVENANCE

        warehouse, run_id = sqlite
        details = self._plan(
            warehouse, SQLITE_DEEP_PROVENANCE,
            {"run_id": run_id, "data_id": "d447"},
        )
        self._assert_no_table_scan(details)
        assert any("io_by_data" in d for d in details), details
        assert any("io_by_step" in d for d in details), details

    def test_point_lookups_use_covering_indexes(self, sqlite):
        warehouse, run_id = sqlite
        probes = (
            ("SELECT step_id FROM io WHERE run_id = ? AND data_id = ?"
             " AND direction = 'out'", (run_id, "d447")),
            ("SELECT data_id FROM io WHERE run_id = ? AND step_id = ?"
             " AND direction = 'in'", (run_id, "S1")),
            ("SELECT subject FROM annotation WHERE run_id = ? AND key = ?"
             " ORDER BY subject", (run_id, "quality")),
            ("SELECT subject FROM annotation WHERE run_id = ? AND key = ?"
             " AND value = ? ORDER BY subject", (run_id, "quality", "ok")),
        )
        for sql, params in probes:
            details = self._plan(warehouse, sql, params)
            self._assert_no_table_scan(details)
        # The (key, value) probe is the one the annotation PK cannot serve
        # without filtering; it must pick the covering secondary index.
        annotated = self._plan(warehouse, probes[3][0], probes[3][1])
        assert any("annotation_by_key" in d for d in annotated), annotated
