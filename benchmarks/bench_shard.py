"""Sharded-warehouse scaling: parallel ingest and scatter-gather reads.

Two phases, each timed against a plain single-file warehouse and
federations of 1/2/4/8 shards:

``ingest``
    the write path of :meth:`store_many` over pre-prepared batches
    carrying their reachability labels.  The prepare stage (row shaping,
    lint, label computation) is deliberately done *before* the clock
    starts — it is identical for every backend and GIL-bound, so timing
    it would only dilute the thing sharding changes: each shard's writer
    thread commits its slice of every batch concurrently, and the
    inserts run in SQLite's C core with the GIL released, so the commits
    can overlap on a multi-core host.
``query``
    the cross-run scatter-gather reads (``list_runs``, per-run row
    fetches, index status) a federation must answer by merging every
    shard — the price paid for the parallel writes, bounded by the
    acceptance claim "within 2x of the single file".

Tier selection honours ``ZOOM_BENCH_SHARD_TIERS`` (comma-separated
subset of ``small,large``); CI smoke runs set ``small``.  The final
report test writes ``BENCH_shard.json`` at the repository root and
asserts the scaling claims — strictly on the large workload (>=2x
ingest speedup at 4 shards, scatter-gather within 2x), leniently on the
small one (no pathological inversion).  Parallel speedup needs
parallel hardware: on hosts with fewer than 4 CPUs every shard commit
shares one core, so the strict gate degrades to the lenient one and the
recorded ``cpus`` field says why.
"""

from __future__ import annotations

import json
import os
import random
from pathlib import Path

import pytest

from repro.warehouse.pipeline import _PrepareTask, prepare_run
from repro.warehouse.sharded import ShardedWarehouse
from repro.warehouse.sqlite import SqliteWarehouse
from repro.workloads.classes import RUN_CLASSES, WORKFLOW_CLASSES
from repro.workloads.generator import generate_workflow
from repro.workloads.runs import generate_run

from .conftest import print_table

#: (number of specs, runs per spec, target spec size, run class) per
#: tier.  The large tier uses medium runs so the row inserts — the
#: parallelizable C-side work — dominate each shard's commit.
TIERS = {
    "small": (2, 6, 10, "small"),
    "large": (3, 16, 14, "medium"),
}

#: Benchmarked backends: the plain single-file warehouse, then
#: federations at every shard count of the acceptance matrix.
BACKENDS = ["file", "shard1", "shard2", "shard4", "shard8"]

BATCH = 32

_SELECTED = [
    tier for tier in os.environ.get(
        "ZOOM_BENCH_SHARD_TIERS", "small,large"
    ).split(",") if tier
]

_INGEST = {}
_QUERY = {}
_RUN_COUNTS = {}

_JSON_PATH = Path(__file__).resolve().parent.parent / "BENCH_shard.json"


def _workload(tier):
    n_specs, n_runs, size, run_class = TIERS[tier]
    rng = random.Random(20080407)
    classes = sorted(WORKFLOW_CLASSES)
    items = []
    for i in range(n_specs):
        generated = generate_workflow(
            WORKFLOW_CLASSES[classes[i % len(classes)]], rng,
            target_size=size, name="%s-wf%d" % (tier, i),
        )
        runs = [
            generate_run(generated.spec, RUN_CLASSES[run_class], rng,
                         run_id="r%d" % n)
            for n in range(n_runs)
        ]
        items.append((generated.spec, runs))
    return items


def _prepared_batches(items):
    """The workload reduced to store_many-ready batches, prepare done.

    ``labels=True`` attaches each run's reachability labels, making the
    timed commit the label-materialising ingest configuration — the
    heaviest one.
    """
    prepared = []
    for spec, results in items:
        for number, result in enumerate(results, start=1):
            task = _PrepareTask(
                run=result.run, spec_id=spec.name,
                run_id="%s/run%d" % (spec.name, number),
                labels=True,
            )
            prepared.append(prepare_run(task))
    return [prepared[i:i + BATCH] for i in range(0, len(prepared), BATCH)]


def _make_warehouse(backend, path):
    if backend == "file":
        return SqliteWarehouse(str(path) + ".db", bulk=True)
    shards = int(backend[len("shard"):])
    return ShardedWarehouse(str(path), shards=shards, bulk=True)


@pytest.fixture(scope="module")
def workloads():
    return {tier: _workload(tier) for tier in _SELECTED}


@pytest.fixture(scope="module")
def batches(workloads):
    return {tier: _prepared_batches(workloads[tier]) for tier in _SELECTED}


@pytest.mark.parametrize("tier", [t for t in TIERS if t in _SELECTED])
@pytest.mark.parametrize("backend", BACKENDS)
def test_shard_ingest(benchmark, workloads, batches, tmp_path_factory,
                      backend, tier):
    items = workloads[tier]
    tier_batches = batches[tier]
    n_runs = sum(len(runs) for _spec, runs in items)
    root = tmp_path_factory.mktemp("shard-%s-%s" % (tier, backend))
    fresh = {"count": 0}

    def setup():
        fresh["count"] += 1
        warehouse = _make_warehouse(
            backend, root / ("round%d" % fresh["count"])
        )
        for spec, _runs in items:
            warehouse.store_spec(spec)
        return (warehouse,), {}

    def ingest(warehouse):
        for batch in tier_batches:
            warehouse.store_many(batch)
        warehouse.close()

    rounds = 3 if tier == "small" else 2
    benchmark.pedantic(ingest, setup=setup, rounds=rounds, warmup_rounds=1)
    total_ms = benchmark.stats.stats.min * 1000
    _INGEST[(tier, backend)] = total_ms
    _RUN_COUNTS[tier] = n_runs
    benchmark.extra_info["runs"] = n_runs
    print_table(
        "Shard ingest / %s workload / %s" % (tier, backend),
        ["runs", "total ms", "ms/run"],
        [[n_runs, "%.1f" % total_ms, "%.2f" % (total_ms / n_runs)]],
    )


@pytest.mark.parametrize("tier", [t for t in TIERS if t in _SELECTED])
@pytest.mark.parametrize("backend", BACKENDS)
def test_shard_query(benchmark, workloads, batches, tmp_path_factory,
                     backend, tier):
    items = workloads[tier]
    warehouse = _make_warehouse(
        backend, tmp_path_factory.mktemp("q-%s-%s" % (tier, backend)) / "wh"
    )
    for spec, _runs in items:
        warehouse.store_spec(spec)
    for batch in batches[tier]:
        warehouse.store_many(batch)
    run_ids = warehouse.list_runs()
    probes = run_ids[:: max(1, len(run_ids) // 8)]

    def scatter_gather():
        listing = warehouse.list_runs()
        warehouse.list_specs()
        warehouse.label_index_status()
        for run_id in probes:
            warehouse.io_rows(run_id)
            warehouse.final_outputs(run_id)
        return len(listing)

    try:
        result = benchmark.pedantic(
            scatter_gather, rounds=20, warmup_rounds=3, iterations=3
        )
        assert result == len(run_ids)
    finally:
        warehouse.close()
    latency_ms = benchmark.stats.stats.min * 1000
    _QUERY[(tier, backend)] = latency_ms
    print_table(
        "Scatter-gather / %s workload / %s" % (tier, backend),
        ["runs", "latency ms"],
        [[len(run_ids), "%.2f" % latency_ms]],
    )


def test_shard_report(benchmark):
    """Emit BENCH_shard.json; 4 shards must ingest 2x faster on large."""

    def snapshot():
        return dict(_INGEST), dict(_QUERY)

    ingest, query = benchmark.pedantic(snapshot, rounds=1, iterations=1)
    expected = [
        (tier, backend) for tier in _SELECTED for backend in BACKENDS
    ]
    if any(key not in ingest or key not in query for key in expected):
        pytest.skip("needs the full (tier x backend) matrix in one session")
    cpus = os.cpu_count() or 1
    payload = {"cpus": cpus}
    for tier in _SELECTED:
        payload[tier] = {
            "runs": _RUN_COUNTS[tier],
            "ingest_ms": {
                backend: round(ingest[(tier, backend)], 2)
                for backend in BACKENDS
            },
            "query_ms": {
                backend: round(query[(tier, backend)], 3)
                for backend in BACKENDS
            },
        }
    _JSON_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print_table(
        "Sharded warehouse, total ingest ms (min over rounds)",
        ["tier", "runs"] + BACKENDS,
        [[tier, payload[tier]["runs"]]
         + ["%.1f" % payload[tier]["ingest_ms"][b] for b in BACKENDS]
         for tier in _SELECTED],
    )
    for tier in _SELECTED:
        ingest_ms = payload[tier]["ingest_ms"]
        query_ms = payload[tier]["query_ms"]
        if tier == "large" and cpus >= 4:
            # The acceptance claims, verbatim.  They need parallel
            # hardware to be meaningful: with the shard commits pinned
            # to one core there is nothing for the federation to
            # overlap, so single-core hosts fall through to the
            # no-inversion gate below (the payload's "cpus" records it).
            assert ingest_ms["shard4"] * 2 <= ingest_ms["shard1"], ingest_ms
            assert query_ms["shard8"] <= 2 * query_ms["file"], query_ms
        else:
            # CI smoke / small hosts: fixed per-shard overheads dominate,
            # so only rule out a pathological inversion.
            assert ingest_ms["shard4"] <= 2.5 * ingest_ms["shard1"], ingest_ms
            assert query_ms["shard8"] <= 6 * query_ms["file"], query_ms
