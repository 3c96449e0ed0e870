"""Ingestion throughput: serial loader vs. the batched pipeline.

Three ways of ingesting the same workload into a file-backed SQLite
warehouse:

``serial``
    the reference :func:`~repro.warehouse.loader.load_dataset` loop — one
    run at a time, per-run lint, per-run transaction;
``batched``
    :func:`~repro.warehouse.pipeline.ingest_dataset` with ``jobs=0`` — the
    same per-run prepare work inline, but rows shaped exactly once, whole
    batches gated and committed in single ``executemany`` transactions,
    and the ``bulk=True`` connection profile (``synchronous = OFF``,
    deferred ``io`` secondary indexes);
``parallel``
    the same plus a 4-worker thread pool for the prepare stage, which
    overlaps row shaping/linting of batch *k+1* with the commit of
    batch *k*.

The timed path ingests without labels — the loader default.  Label
materialisation is a separate, explicitly requested phase (``zoom index
build``) which both ingestion paths share, so timing it here would only
dilute the comparison being made.

Tier selection honours ``ZOOM_BENCH_INGEST_TIERS`` (comma-separated
subset of ``small,medium,large``) so CI smoke runs can stay cheap.  The
final test writes ``BENCH_ingest_time.json`` at the repository root and
asserts the pipeline claim: batched+parallel ingestion is at least twice
as fast as the serial reference on the large workload.
"""

from __future__ import annotations

import json
import os
import random
from pathlib import Path

import pytest

from repro.warehouse.loader import load_dataset
from repro.warehouse.pipeline import ingest_dataset
from repro.warehouse.sqlite import SqliteWarehouse
from repro.workloads.classes import RUN_CLASSES, WORKFLOW_CLASSES
from repro.workloads.generator import generate_workflow
from repro.workloads.runs import generate_run

from .conftest import print_table

#: (number of specs, runs per spec, target spec size) per tier.  Many
#: modest runs over mid-size specs — the regime a warehouse bulk-load
#: actually sees, and the one where per-run overheads dominate.
TIERS = {
    "small": (2, 6, 12),
    "medium": (3, 12, 15),
    "large": (4, 40, 12),
}

MODES = ["serial", "batched", "parallel"]

_SELECTED = [
    tier for tier in os.environ.get(
        "ZOOM_BENCH_INGEST_TIERS", "small,medium,large"
    ).split(",") if tier
]

_TIMES = {}
_RUN_COUNTS = {}

_JSON_PATH = Path(__file__).resolve().parent.parent / "BENCH_ingest_time.json"


def _workload(tier: str):
    n_specs, n_runs, size = TIERS[tier]
    rng = random.Random(20080407)
    classes = sorted(WORKFLOW_CLASSES)
    items = []
    for i in range(n_specs):
        generated = generate_workflow(
            WORKFLOW_CLASSES[classes[i % len(classes)]], rng,
            target_size=size, name="%s-wf%d" % (tier, i),
        )
        runs = [
            generate_run(generated.spec, RUN_CLASSES["small"], rng,
                         run_id="r%d" % n)
            for n in range(n_runs)
        ]
        items.append((generated.spec, runs))
    return items


@pytest.fixture(scope="module")
def workloads():
    return {tier: _workload(tier) for tier in _SELECTED}


@pytest.mark.parametrize("tier", [t for t in TIERS if t in _SELECTED])
@pytest.mark.parametrize("mode", MODES)
def test_ingest_time(benchmark, workloads, tmp_path_factory, mode, tier):
    items = workloads[tier]
    n_runs = sum(len(runs) for _spec, runs in items)
    root = tmp_path_factory.mktemp("ingest-%s-%s" % (tier, mode))
    fresh = {"count": 0}

    def setup():
        fresh["count"] += 1
        path = str(root / ("round%d.sqlite" % fresh["count"]))
        bulk = mode != "serial"
        return (SqliteWarehouse(path, bulk=bulk),), {}

    def ingest(warehouse):
        if mode == "serial":
            load_dataset(warehouse, items)
        elif mode == "batched":
            ingest_dataset(warehouse, items, jobs=0, batch_size=32)
        else:
            ingest_dataset(warehouse, items, jobs=4, batch_size=32)
        warehouse.close()

    benchmark.pedantic(ingest, setup=setup, rounds=3, warmup_rounds=1)
    total_ms = benchmark.stats.stats.min * 1000
    _TIMES[(tier, mode)] = total_ms
    _RUN_COUNTS[tier] = n_runs
    benchmark.extra_info["runs"] = n_runs
    benchmark.extra_info["ms_per_run"] = total_ms / n_runs
    print_table(
        "Ingestion / %s workload / %s" % (tier, mode),
        ["runs", "total ms", "ms/run"],
        [[n_runs, "%.1f" % total_ms, "%.2f" % (total_ms / n_runs)]],
    )


def test_ingest_time_report(benchmark):
    """Emit BENCH_ingest_time.json; the pipeline must win 2x on large."""

    def snapshot():
        return dict(_TIMES)

    times = benchmark.pedantic(snapshot, rounds=1, iterations=1)
    expected = [(tier, mode) for tier in _SELECTED for mode in MODES]
    if any(key not in times for key in expected):
        pytest.skip("needs the full (tier x mode) matrix in one session")
    payload = {
        tier: dict(
            {"runs": _RUN_COUNTS[tier]},
            **{mode: round(times[(tier, mode)], 2) for mode in MODES},
        )
        for tier in _SELECTED
    }
    _JSON_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print_table(
        "Ingestion, total ms (min of 3 rounds)",
        ["tier", "runs"] + MODES,
        [[tier, payload[tier]["runs"]]
         + ["%.1f" % payload[tier][mode] for mode in MODES]
         for tier in _SELECTED],
    )
    if "large" in _SELECTED:
        large = payload["large"]
        assert large["parallel"] * 2 <= large["serial"], large
        assert large["batched"] < large["serial"], large
