"""End-to-end tests of the command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.zoom.cli import main


class TestDemo:
    def test_demo_narrates_both_users(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "Joe" in out
        assert "Mary" in out
        assert "d447" in out
        # Joe cannot see d411; Mary can.
        assert "visible to Joe: False" in out
        assert "visible to Mary: True" in out


class TestGenerate:
    def test_generate_to_stdout(self, capsys):
        assert main(["generate", "--class", "Class2", "--seed", "3"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["modules"]
        assert payload["suggested_relevant"]

    def test_generate_to_file(self, tmp_path, capsys):
        out = tmp_path / "spec.json"
        assert main(["generate", "--out", str(out), "--size", "15"]) == 0
        payload = json.loads(out.read_text())
        assert len(payload["modules"]) >= 15


class TestPipeline:
    """generate -> load -> view -> prov, all through the CLI."""

    @pytest.fixture
    def db_and_spec(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        db_path = tmp_path / "warehouse.sqlite"
        main(["generate", "--class", "Class2", "--seed", "5", "--name",
              "cli-wf", "--out", str(spec_path)])
        main(["load", "--db", str(db_path), "--spec", str(spec_path),
              "--run-class", "small", "--runs", "2"])
        payload = json.loads(spec_path.read_text())
        return str(db_path), payload

    def test_load_stores_runs(self, db_and_spec, capsys):
        db, _payload = db_and_spec
        from repro.warehouse.sqlite import SqliteWarehouse

        with SqliteWarehouse(db) as warehouse:
            assert warehouse.list_specs() == ["cli-wf"]
            assert len(warehouse.list_runs()) == 2

    def test_view_command(self, db_and_spec, capsys):
        db, payload = db_and_spec
        relevant = payload["suggested_relevant"][:2]
        code = main(["view", "--db", db, "--spec-id", "cli-wf",
                     "--relevant", *relevant, "--save"])
        assert code == 0
        out = capsys.readouterr().out
        assert "view of size" in out
        assert "stored as view" in out

    def test_view_optimize_flag(self, db_and_spec, capsys):
        db, payload = db_and_spec
        relevant = payload["suggested_relevant"][:2]
        code = main(["view", "--db", db, "--spec-id", "cli-wf",
                     "--relevant", *relevant, "--optimize"])
        assert code == 0
        assert "view of size" in capsys.readouterr().out

    def test_prov_command_default_target(self, db_and_spec, capsys):
        db, payload = db_and_spec
        relevant = payload["suggested_relevant"][:1]
        code = main(["prov", "--db", db, "--run-id", "cli-wf/run1",
                     "--relevant", *relevant])
        assert code == 0
        out = capsys.readouterr().out
        assert "deep provenance of" in out
        assert "tuples" in out

    def test_prov_report_format(self, db_and_spec, capsys):
        db, payload = db_and_spec
        relevant = payload["suggested_relevant"][:1]
        code = main(["prov", "--db", db, "--run-id", "cli-wf/run1",
                     "--relevant", *relevant, "--format", "report"])
        assert code == 0
        out = capsys.readouterr().out
        assert "provenance of" in out
        assert "user inputs:" in out

    def test_prov_with_stored_view(self, db_and_spec, capsys):
        db, payload = db_and_spec
        relevant = payload["suggested_relevant"][:1]
        main(["view", "--db", db, "--spec-id", "cli-wf",
              "--relevant", *relevant, "--save", "--view-id", "v1"])
        capsys.readouterr()
        code = main(["prov", "--db", db, "--run-id", "cli-wf/run2",
                     "--view-id", "v1"])
        assert code == 0
        assert "deep provenance" in capsys.readouterr().out

    def test_dot_outputs(self, db_and_spec, capsys):
        db, _payload = db_and_spec
        assert main(["dot", "--db", db, "--spec-id", "cli-wf"]) == 0
        assert capsys.readouterr().out.startswith("digraph")
        assert main(["dot", "--db", db, "--run-id", "cli-wf/run1"]) == 0
        assert capsys.readouterr().out.startswith("digraph")

    def test_opm_export(self, db_and_spec, capsys, tmp_path):
        db, payload = db_and_spec
        relevant = payload["suggested_relevant"][:2]
        code = main(["opm", "--db", db, "--run-id", "cli-wf/run1",
                     "--relevant", *relevant])
        assert code == 0
        document = json.loads(capsys.readouterr().out)
        assert document["accounts"]
        out = tmp_path / "prov.json"
        assert main(["opm", "--db", db, "--run-id", "cli-wf/run1",
                     "--out", str(out)]) == 0
        assert json.loads(out.read_text())["run_id"] == "cli-wf/run1"

    def test_plan_command(self, db_and_spec, capsys):
        db, _payload = db_and_spec
        from repro.warehouse.sqlite import SqliteWarehouse

        with SqliteWarehouse(db) as warehouse:
            changed = sorted(warehouse.user_inputs("cli-wf/run1"))[0]
        code = main(["plan", "--db", db, "--run-id", "cli-wf/run1",
                     "--changed", changed])
        assert code == 0
        out = capsys.readouterr().out
        assert "stale steps" in out
        assert "work fraction" in out

    def test_diff_command(self, db_and_spec, capsys):
        db, _payload = db_and_spec
        code = main(["diff", "--db", db, "--run-a", "cli-wf/run1",
                     "--run-b", "cli-wf/run2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "granularity" in out

    def test_stats_command(self, db_and_spec, capsys):
        db, _payload = db_and_spec
        assert main(["stats", "--db", db]) == 0
        out = capsys.readouterr().out
        assert "runs: 2" in out
        assert "hottest modules" in out

    def test_ingest_trace(self, db_and_spec, capsys, tmp_path):
        db, _payload = db_and_spec
        from repro.run.log import log_from_run
        from repro.run.trace import write_trace
        from repro.warehouse.sqlite import SqliteWarehouse

        with SqliteWarehouse(db) as warehouse:
            run = warehouse.get_run("cli-wf/run1")
        trace_path = str(tmp_path / "external.trace")
        log = log_from_run(run)
        log.run_id = "external-run"
        write_trace(log, trace_path)
        code = main(["ingest", "--db", db, "--spec-id", "cli-wf",
                     "--trace", trace_path])
        assert code == 0
        assert "ingested trace" in capsys.readouterr().out
        with SqliteWarehouse(db) as warehouse:
            assert "external-run" in warehouse.list_runs()

    def test_dump_and_restore(self, db_and_spec, capsys, tmp_path):
        db, _payload = db_and_spec
        archive = tmp_path / "archive.json"
        assert main(["dump", "--db", db, "--out", str(archive)]) == 0
        assert "dumped" in capsys.readouterr().out
        new_db = str(tmp_path / "restored.sqlite")
        assert main(["restore", "--db", new_db,
                     "--archive", str(archive)]) == 0
        from repro.warehouse.sqlite import SqliteWarehouse

        with SqliteWarehouse(new_db) as warehouse:
            assert warehouse.list_specs() == ["cli-wf"]
            assert len(warehouse.list_runs()) == 2

    def test_serve_command(self, db_and_spec, capsys):
        db, _payload = db_and_spec
        capsys.readouterr()
        assert main(["serve", "--db", db, "--requests", "20",
                     "--clients", "2"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["requests"] == 20
        assert summary["completed"] == summary["requests"]
        assert summary["errors"] == 0


class TestStatsProbe:
    def test_probe_prints_cache_and_timing_stats(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        db = tmp_path / "wh.sqlite"
        main(["generate", "--class", "Class2", "--seed", "5", "--name",
              "probe-wf", "--out", str(spec_path)])
        main(["load", "--db", str(db), "--spec", str(spec_path),
              "--runs", "1"])
        capsys.readouterr()
        assert main(["stats", "--db", str(db),
                     "--probe-run", "probe-wf/run1"]) == 0
        out = capsys.readouterr().out
        assert "session caches after probe" in out
        assert "composites" in out and "hit_rate" in out
        assert "hot-path metrics" in out
        assert "reasoner.view_switch" in out
        assert "warehouse.sql" in out
