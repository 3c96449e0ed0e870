"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload session-views --seed 1 --seconds 20 --trace 0

Run from the root of a checkout: the program is imported from ``src/``
next to this directory, and scratch databases, reports and spans go to
``.perfbench/`` there.  ``--trace 0`` generates the workload's archive
once, then runs the workload's rounds, each a fresh set-up of the
program followed by a slice of the timed window, checks every
answer sample and prints the end-to-end metrics.  ``--trace 1`` runs one
untraced and one traced round, each timing half the seconds, and prints
the per-layer metrics, including the tracing overhead.  The last line of
standard output is the result object; the line before it is the full
report (host facts, seed, sizes, sample counts, failures by reason).  The
exit code is 0 only when every operation succeeded and every check
passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sqlite3
import sys
from typing import Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")

#: (name, unit) of every end-to-end metric, in BENCHMARK.json order.
END_TO_END: List[Tuple[str, str]] = [
    ("setup_s", "s"),
    ("query_p50_ms", "ms"),
    ("query_p99_ms", "ms"),
    ("query_qps", "1/s"),
    ("first_touch_p50_ms", "ms"),
    ("ingest_runs_per_s", "runs/s"),
    ("stream_events_per_s", "events/s"),
    ("epoch_p50_ms", "ms"),
    ("epoch_p99_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("db_bytes_per_row", "B/row"),
]

#: (name, unit) of every per-layer metric, in BENCHMARK.json order.
PER_LAYER: List[Tuple[str, str]] = [
    ("serve.result_hit_ratio", "ratio"),
    ("serve.overhead_ms", "ms"),
    ("serve.rejected", "count"),
    ("serve.queue_ms", "ms"),
    ("serve.self_ms", "ms"),
    ("reasoner.deep_ms", "ms"),
    ("reasoner.reverse_ms", "ms"),
    ("reasoner.zoom_ms", "ms"),
    ("reasoner.runs_hit_ratio", "ratio"),
    ("reasoner.composites_hit_ratio", "ratio"),
    ("reasoner.closures_hit_ratio", "ratio"),
    ("reasoner.runs_evictions", "count"),
    ("reasoner.refreshes", "count"),
    ("reasoner.self_ms", "ms"),
    ("composite.build_ms", "ms"),
    ("composite.builds", "count"),
    ("composite.self_ms", "ms"),
    ("queries.deep_ms", "ms"),
    ("queries.reverse_ms", "ms"),
    ("queries.self_ms", "ms"),
    ("warehouse.get_run_ms", "ms"),
    ("warehouse.get_run_calls", "count"),
    ("warehouse.closure_ms", "ms"),
    ("warehouse.admin_deep_provenance_ms", "ms"),
    ("warehouse.label_lookup_ms", "ms"),
    ("warehouse.lineage_lookup_ms", "ms"),
    ("warehouse.sql_per_query", "count"),
    ("warehouse.self_ms", "ms"),
    ("ingest.prepare_ms", "ms"),
    ("ingest.gate_ms", "ms"),
    ("ingest.write_ms", "ms"),
    ("ingest.journal_ms", "ms"),
    ("stream.apply_ms", "ms"),
    ("stream.epochs", "count"),
    ("stream.delta_ratio", "ratio"),
    ("bench.uncovered_ms", "ms"),
    ("bench.layer_sum_ratio", "ratio"),
    ("bench.trace_overhead_pct", "%"),
]

#: Layers whose self time along a request is reported.
REQUEST_LAYERS = ("serve", "reasoner", "composite", "queries", "warehouse")


def host_facts() -> Dict[str, object]:
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "sqlite": sqlite3.sqlite_version,
        "platform": platform.platform(),
        "git_sha": git_sha(),
    }


def git_sha() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    head_path = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head_path) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path) as handle:
                return handle.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def end_to_end(measure) -> Dict[str, float]:
    """Medians over rounds of per-round figures; p99s and the rate over pooled windows."""
    from stats import median, percentile

    return {
        "setup_s": median(measure.setup_s),
        "query_p50_ms": median(measure.query_p50_s) * 1e3,
        "query_p99_ms": percentile(measure.query_s, 99) * 1e3,
        "query_qps": measure.queries_done / measure.window_s,
        "first_touch_p50_ms": median(measure.first_touch_p50_s) * 1e3,
        "ingest_runs_per_s": median(measure.ingest_runs_per_s),
        "stream_events_per_s": median(measure.stream_events_per_s),
        "epoch_p50_ms": median(measure.epoch_p50_s) * 1e3,
        "epoch_p99_ms": percentile(measure.epoch_s, 99) * 1e3,
        "peak_rss_mb": measure.peak_rss_mb,
        "db_bytes_per_row": measure.db_bytes_per_row,
    }


def window_state(stack) -> Dict[str, object]:
    """Counters read before and after the traced window."""
    from repro.obs import get_registry

    service = stack.service.stats()
    return {
        "results": service["cache"],
        "rejected": service["rejected"],
        "reasoner": stack.service.reasoner.stats(),
        "sql": get_registry().counter("warehouse.sql").value,
    }


def hit_ratio(before: Dict[str, int], after: Dict[str, int]) -> float:
    hits = after["hits"] - before["hits"]
    lookups = hits + after["misses"] - before["misses"]
    return hits / lookups if lookups else 0.0


def per_layer(recorder, before, after, untraced_mean_s: float) -> Dict[str, float]:
    from repro.obs import get_registry
    from stats import mean, median
    from tracing import CLOSURE_METHODS, breakdown, descendants

    recorder.resolve()
    requests = recorder.roots("serve.request")
    durations: Dict[str, List[float]] = {}
    zoom_per_request: List[float] = []
    cache_served: List[float] = []
    queued: List[float] = []
    uncovered: List[float] = []
    self_totals = dict.fromkeys(REQUEST_LAYERS, 0.0)
    for root in requests:
        zoom = 0.0
        reached = False
        for span in descendants(root):
            durations.setdefault(span.name, []).append(span.duration)
            if span.layer == "reasoner":
                reached = True
            if span.name == "reasoner.zoom":
                zoom += span.duration
        if zoom:
            zoom_per_request.append(zoom)
        if not reached:
            cache_served.append(root.duration)
        layers, wait, rest = breakdown(root)
        queued.append(wait)
        uncovered.append(rest)
        for layer, seconds in layers.items():
            self_totals[layer] = self_totals.get(layer, 0.0) + seconds

    def ms(name: str) -> float:
        return mean(durations.get(name, [])) * 1e3

    count = max(1, len(requests))
    request_total = sum(root.duration for root in requests)
    closure = [d for m in CLOSURE_METHODS for d in durations.get("warehouse." + m, [])]
    registry = get_registry()
    ingested = registry.counter("ingest.runs").value or 1
    journal = sum(
        span.duration
        for root in recorder.roots("ingest.load")
        for span in descendants(root)
        if span.name.startswith("ingest.journal")
    )
    delta = registry.counter("stream.delta").value
    rebuild = registry.counter("stream.rebuild").value
    out = {
        "serve.result_hit_ratio": hit_ratio(before["results"], after["results"]),
        "serve.overhead_ms": (median(cache_served) if cache_served else 0.0) * 1e3,
        "serve.rejected": after["rejected"] - before["rejected"],
        "serve.queue_ms": mean(queued) * 1e3,
        "reasoner.deep_ms": ms("reasoner.deep"),
        "reasoner.reverse_ms": ms("reasoner.reverse"),
        "reasoner.zoom_ms": mean(zoom_per_request) * 1e3,
        "reasoner.runs_evictions": (
            after["reasoner"]["runs"]["evictions"] - before["reasoner"]["runs"]["evictions"]
        ),
        # Streaming happens in set-up, so refreshes count over the whole
        # traced run, not the window.
        "reasoner.refreshes": registry.counter("reasoner.refreshes").value,
        "composite.build_ms": ms("composite.build"),
        "composite.builds": len(durations.get("composite.build", [])),
        "queries.deep_ms": ms("queries.deep"),
        "queries.reverse_ms": ms("queries.reverse"),
        "warehouse.get_run_ms": ms("warehouse.get_run"),
        "warehouse.get_run_calls": len(durations.get("warehouse.get_run", [])),
        "warehouse.closure_ms": mean(closure) * 1e3,
        "warehouse.sql_per_query": (after["sql"] - before["sql"]) / count,
        "ingest.prepare_ms": registry.timer("ingest.prepare").total * 1e3 / ingested,
        "ingest.gate_ms": registry.timer("ingest.gate").total * 1e3 / ingested,
        "ingest.write_ms": registry.timer("ingest.write").total * 1e3 / ingested,
        "ingest.journal_ms": journal * 1e3 / ingested,
        "stream.apply_ms": registry.timer("stream.apply").mean * 1e3,
        "stream.epochs": registry.counter("stream.epochs").value,
        "stream.delta_ratio": delta / (delta + rebuild) if delta + rebuild else 0.0,
        "bench.uncovered_ms": mean(uncovered) * 1e3,
        # Instrumented spans only, so queue wait and uncovered time show
        # as the shortfall from 1.
        "bench.layer_sum_ratio": (
            sum(self_totals.values()) / request_total if request_total else 0.0
        ),
        "bench.trace_overhead_pct": (request_total / count / untraced_mean_s - 1.0) * 100.0,
    }
    for cache in ("runs", "composites", "closures"):
        out["reasoner.%s_hit_ratio" % cache] = hit_ratio(
            before["reasoner"][cache], after["reasoner"][cache]
        )
    for method in CLOSURE_METHODS:
        out["warehouse.%s_ms" % method] = ms("warehouse." + method)
    for layer in REQUEST_LAYERS:
        out["%s.self_ms" % layer] = self_totals[layer] / count * 1e3
    return out


def run_untraced(workload, seconds: float, rounds: int):
    """``rounds`` rounds, each a set-up, a ``seconds / rounds`` window and checks.

    The workload must be prepared.
    """
    from workloads import Measure

    measure = Measure()
    for _ in range(rounds):
        workload.setup(measure, None)
        workload.finish(measure, workload.window(seconds / rounds, measure))
    return measure


def run_traced(workload, seconds: float, untraced_mean_s: float, spans_path: str):
    from tracing import Recorder, patched_internals
    from workloads import Measure

    measure = Measure()
    recorder = Recorder()
    with patched_internals(recorder):
        workload.setup(measure, recorder)
        before = window_state(workload.stack)
        outcomes = workload.window(seconds, measure)
        after = window_state(workload.stack)
    values = per_layer(recorder, before, after, untraced_mean_s)
    recorder.dump(spans_path)
    workload.finish(measure, outcomes)
    return measure, values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print("perfbench: no program source under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from stats import mean
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print("perfbench: unknown workload %r (expected one of %s)"
              % (args.workload, sorted(WORKLOADS)), file=sys.stderr)
        return 2
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    workdir = os.path.join(OUT, "tmp-%s-%d" % (tag, os.getpid()))
    os.makedirs(workdir)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        workload.prepare()
        if args.trace:
            half = args.seconds / 2
            baseline = run_untraced(workload, half, 1)
            measure, values = run_traced(
                workload, half, mean(baseline.query_s),
                os.path.join(OUT, "spans-%s.jsonl" % tag),
            )
            measure.tally.merge(baseline.tally)
            names = PER_LAYER
        else:
            measure = run_untraced(workload, args.seconds, workload.rounds)
            values = end_to_end(measure)
            names = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    tally = measure.tally
    correct = tally.failed == 0
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host_facts(),
        "sizes": workload.sizes,
        "samples": {
            "rounds": len(measure.setup_s),
            "queries": len(measure.query_s),
            "epochs": len(measure.epoch_s),
        },
        "failed_ratio": tally.failed_ratio,
        "failures": tally.failures,
        "failure_samples": tally.samples,
    }
    with open(os.path.join(OUT, "report-%s.json" % tag), "w") as handle:
        json.dump({"report": report, "metrics": values}, handle, indent=2, sort_keys=True)
    print(json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in names},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
