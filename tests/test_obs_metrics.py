"""Unit tests for the metrics registry, timers and the timed decorator."""

from __future__ import annotations

import logging

import pytest

from repro.obs import MetricsRegistry, format_stats, get_registry, set_registry, timed
from repro.obs.report import hit_rate_summary


@pytest.fixture
def registry():
    """A fresh registry installed as the process default for the test."""
    fresh = MetricsRegistry()
    previous = set_registry(fresh)
    yield fresh
    set_registry(previous)


class TestCountersAndTimers:
    def test_counter_increments_and_resets(self, registry):
        counter = registry.counter("c")
        counter.increment()
        counter.increment(4)
        assert counter.value == 5
        counter.reset()
        assert counter.value == 0

    def test_counter_identity_by_name(self, registry):
        assert registry.counter("same") is registry.counter("same")

    def test_timer_accumulates_observations(self, registry):
        timer = registry.timer("t")
        timer.observe(0.010)
        timer.observe(0.030)
        assert timer.count == 2
        assert timer.total == pytest.approx(0.040)
        assert timer.mean == pytest.approx(0.020)
        assert timer.min == pytest.approx(0.010)
        assert timer.max == pytest.approx(0.030)
        assert timer.last == pytest.approx(0.030)

    def test_time_context_manager(self, registry):
        with registry.time("block"):
            pass
        assert registry.timer("block").count == 1

    def test_snapshot_and_reset(self, registry):
        registry.counter("c").increment(2)
        registry.timer("t").observe(0.5)
        snap = registry.snapshot()
        assert snap["c"]["count"] == 2
        assert snap["t"]["count"] == 1
        assert snap["t"]["total_ms"] == pytest.approx(500.0)
        registry.reset()
        snap = registry.snapshot()
        assert snap["c"]["count"] == 0
        assert snap["t"]["count"] == 0

    def test_log_snapshot_uses_logging(self, registry, caplog):
        registry.counter("hits").increment()
        with caplog.at_level(logging.DEBUG, logger="repro.obs.metrics"):
            registry.log_snapshot()
        assert any("hits" in record.message or "hits" in str(record.args)
                   for record in caplog.records)


class TestTimedDecorator:
    def test_timed_records_into_current_default(self, registry):
        @timed("decorated.path")
        def work(x):
            return x * 2

        assert work(21) == 42
        assert registry.timer("decorated.path").count == 1

    def test_timed_records_on_exception(self, registry):
        @timed("boom")
        def explode():
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError):
            explode()
        assert registry.timer("boom").count == 1

    def test_hot_paths_report_to_registry(self, registry):
        """Building a view and a composite run lands in the hot-path timers."""
        from repro.core.builder import build_user_view
        from repro.core.composite import CompositeRun
        from repro.workloads.phylogenomic import phylogenomic_run, phylogenomic_spec

        spec = phylogenomic_spec()
        view = build_user_view(spec, {"M3", "M7"})
        CompositeRun(phylogenomic_run(spec), view)
        snap = registry.snapshot()
        assert snap["view.build"]["count"] == 1
        assert snap["composite.build"]["count"] == 1

    def test_set_registry_swaps_default(self):
        first = MetricsRegistry()
        previous = set_registry(first)
        try:
            assert get_registry() is first
        finally:
            set_registry(previous)


class TestReport:
    def test_format_stats_renders_all_columns(self):
        text = format_stats(
            {"views": {"hits": 3, "misses": 1, "hit_rate": 0.75},
             "runs": {"hits": 0, "misses": 2, "hit_rate": 0.0}},
            title="caches",
        )
        assert "== caches ==" in text
        assert "views" in text and "runs" in text
        assert "hit_rate" in text
        assert "0.75" in text

    def test_format_stats_handles_ragged_rows(self):
        text = format_stats({"a": {"x": 1}, "b": {"y": 2}})
        lines = text.splitlines()
        assert "x" in lines[0] and "y" in lines[0]
        assert "-" in text  # missing cells rendered as placeholders

    def test_hit_rate_summary_extracts_rates(self):
        rates = hit_rate_summary(
            {"views": {"hit_rate": 0.5}, "timer": {"mean_ms": 3.0}}
        )
        assert rates == {"views": 0.5}
