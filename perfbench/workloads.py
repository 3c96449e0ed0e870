"""The two workloads: session-views and archive-sweep.

Each drives the program only through public entry points on a
file-backed ``SqliteWarehouse``: ``ingest_dataset`` (the journaled,
batched pipeline), ``StreamingIngestor`` and ``QueryService`` with the
library's default strategy and two workers.

A run generates the workload's archive once, then runs the workload's
``rounds`` rounds.  Each round sets the program up from scratch (load,
stream, warm), times one slice of the window on it, checks its answers
and tears it down.  Interleaving set-ups and windows spreads every
metric's samples over the whole run, so a host that slows down for a few
seconds moves all of them a little instead of one of them a lot.
Medians are taken per round and then across rounds, so one slow round
cannot move them; the p99s pool every round's samples, which they need
to have ten beyond them.
"""

from __future__ import annotations

import contextlib
import gc
import os
import random
import resource
import sqlite3
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.errors import HiddenDataError
from repro.core.view import admin_view
from repro.obs import MetricsRegistry, set_registry
from repro.provenance.reasoner import ProvenanceReasoner
from repro.serve import AdmissionError, QueryService
from repro.warehouse.pipeline import ingest_dataset
from repro.warehouse.recovery import checksum_stored_run
from repro.warehouse.sqlite import SqliteWarehouse
from repro.warehouse.streaming import StreamingIngestor

import inputs
from inputs import VIEW_NAMES, Request, RequestStream, RunInput, Workflow
from stats import Tally, percentile
from tracing import Recorder, trace_service, traced_reasoner, traced_warehouse

#: Worker threads of the service and closed-loop clients (the host has 2 cores).
WORKERS = 2
CLIENTS = 2

#: Sampled answers per round re-derived by the uncached reference reasoner.
CHECKED_ANSWERS = 10

#: Longest a single request may take before the run counts it failed.
REQUEST_TIMEOUT_S = 60.0

#: A window stops sending once it has run this many times its nominal
#: length, so a much slower program still ends within the time limit.
DEADLINE_FACTOR = 3.0

#: Fewest requests in a window: its median needs ten samples beyond it.
MIN_WINDOW_REQUESTS = 100


@dataclass
class Measure:
    """Figures of one benchmark run: one entry per round, or pooled samples."""

    setup_s: List[float] = field(default_factory=list)
    ingest_runs_per_s: List[float] = field(default_factory=list)
    stream_events_per_s: List[float] = field(default_factory=list)
    #: Requests completed, and window seconds, summed over the rounds.
    queries_done: int = 0
    window_s: float = 0.0
    query_p50_s: List[float] = field(default_factory=list)
    first_touch_p50_s: List[float] = field(default_factory=list)
    epoch_p50_s: List[float] = field(default_factory=list)
    #: Every round's request and epoch latencies, pooled for the p99s.
    query_s: List[float] = field(default_factory=list)
    epoch_s: List[float] = field(default_factory=list)
    #: Peak resident memory when the run's first set-up finished.
    peak_rss_mb: float = 0.0
    db_bytes_per_row: float = 0.0
    tally: Tally = field(default_factory=Tally)


class Stack:
    """One warehouse file with the service and ingestor wired to it.

    Traced, the warehouse handed to the reasoner and the ingestor and the
    reasoner handed to the service are proxies; untraced they are the
    plain objects.
    """

    def __init__(self, path: str, recorder: Optional[Recorder]) -> None:
        set_registry(MetricsRegistry())
        self.path = path
        self.recorder = recorder
        self.warehouse = SqliteWarehouse(path, timing=recorder is not None)
        self.handle = (
            traced_warehouse(self.warehouse, recorder) if recorder else self.warehouse
        )
        self.service = QueryService(self.handle, workers=WORKERS)
        if recorder is not None:
            self.service.reasoner = traced_reasoner(self.service.reasoner, recorder)
            trace_service(self.service, recorder)
        self.ingestor = StreamingIngestor(self.handle, reasoner=self.service.reasoner)

    def span(self, name: str):
        if self.recorder is None:
            return contextlib.nullcontext()
        return self.recorder.span(name)

    def close(self) -> int:
        """Stop, close and delete the warehouse; returns its file and WAL bytes."""
        self.service.close()
        self.warehouse.close()
        size = 0
        for suffix in ("", "-wal", "-shm"):
            path = self.path + suffix
            if not os.path.exists(path):
                continue
            if suffix != "-shm":
                size += os.path.getsize(path)
            os.remove(path)
        return size


# ----------------------------------------------------------------------
# Ingestion
# ----------------------------------------------------------------------


def bulk_load(stack: Stack, workflows: List[Workflow], tally: Tally) -> float:
    """Batch-load every workflow's ``loaded`` runs (the ``zoom load --batch`` path).

    Returns the runs loaded per second.
    """
    items = inputs.pipeline_items(workflows)
    runs = sum(len(simulations) for _spec, simulations in items)
    tally.attempt(runs)
    started = time.perf_counter()
    with stack.span("ingest.load"):
        ingest_dataset(stack.handle, items)
    return runs / (time.perf_counter() - started)


def stream_all(stack: Stack, runs: List[RunInput], measure: Measure) -> Dict[str, str]:
    """Stream every run epoch by epoch; returns each run's final checksum.

    Every epoch and every finalize is an attempted operation.  A failed
    stream is counted and left out of the result.
    """
    ingestor = stack.ingestor
    streamed: Dict[str, str] = {}
    epochs: List[float] = []
    events = 0
    started = time.perf_counter()
    for run in runs:
        measure.tally.attempt(len(run.epochs) + 1)
        try:
            with stack.span("stream.open"):
                ingestor.open_run(run.run_id, run.run_id.rsplit("/", 1)[0])
            for chunk in run.epochs:
                tick = time.perf_counter()
                with stack.span("stream.epoch"):
                    ingestor.ingest_events(run.run_id, chunk)
                epochs.append(time.perf_counter() - tick)
            with stack.span("stream.finalize"):
                streamed[run.run_id] = ingestor.finalize_run(run.run_id)
        except Exception as exc:  # noqa: BLE001 - a failed stream is a counted failure
            measure.tally.fail("stream_error", "%s: %s" % (type(exc).__name__, exc))
            continue
        events += sum(len(chunk) for chunk in run.epochs)
    measure.stream_events_per_s.append(events / (time.perf_counter() - started))
    measure.epoch_s.extend(epochs)
    measure.epoch_p50_s.append(percentile(epochs, 50))
    return streamed


def batch_twin_checksums(workflows: List[Workflow]) -> Dict[str, str]:
    """Checksums of the streamed runs when batch-loaded into a fresh warehouse."""
    reference = SqliteWarehouse(":memory:")
    try:
        out = {}
        for workflow in workflows:
            if not workflow.streamed:
                continue
            spec = workflow.generated.spec
            (record,) = ingest_dataset(
                reference, [(spec, [run.simulation for run in workflow.streamed])]
            )
            for run, twin_id in zip(workflow.streamed, record.run_ids):
                out[run.run_id] = checksum_stored_run(reference, twin_id)
        return out
    finally:
        reference.close()


def check_checksums(
    warehouse: SqliteWarehouse,
    streamed: Dict[str, str],
    expected: Dict[str, str],
    tally: Tally,
) -> None:
    """Each streamed run's checksum equals the stored rows' and its batch twin's."""
    for run_id, checksum in sorted(streamed.items()):
        stored = checksum_stored_run(warehouse, run_id)
        if not checksum == stored == expected[run_id]:
            tally.fail("checksum_mismatch", run_id)


# ----------------------------------------------------------------------
# Queries
# ----------------------------------------------------------------------


class Outcomes:
    """Per-request results shared by the client threads of one window."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.started = time.perf_counter()
        self.latencies: List[float] = []
        self.completions: List[float] = []
        self.first_touch: List[float] = []
        self.touched: set = set()
        self.samples: List[Tuple[Request, object]] = []
        self.tally = Tally()

    def claim_first(self, run_id: str) -> bool:
        """Whether this is the first request issued on ``run_id``."""
        with self.lock:
            if run_id in self.touched:
                return False
            self.touched.add(run_id)
            return True

    def done(self, request: Request, first: bool, latency: float, answer: object) -> None:
        with self.lock:
            self.latencies.append(latency)
            self.completions.append(time.perf_counter())
            if first:
                self.first_touch.append(latency)
            if request.sampled:
                self.samples.append((request, answer))

    def failed(self, exc: BaseException) -> None:
        with self.lock:
            if isinstance(exc, AdmissionError):
                reason = "rejected"
            elif isinstance(exc, HiddenDataError):
                reason = "hidden_data"
            elif isinstance(exc, sqlite3.ProgrammingError):
                reason = "programming_error"
            else:
                reason = type(exc).__name__
            self.tally.fail(reason, str(exc))


def closed_loop(
    stack: Stack,
    stream: RequestStream,
    runs: Dict[str, RunInput],
    requests: int,
    deadline_s: float,
) -> Outcomes:
    """``CLIENTS`` threads, each sending its next request when the last returns.

    The loop sends ``requests`` requests, or as many as it can start
    within ``deadline_s``, whichever comes first.
    """
    service = stack.service
    recorder = stack.recorder
    cursor = threading.Lock()
    outcomes = Outcomes()
    deadline = outcomes.started + deadline_s
    sent = [0]

    def client() -> None:
        while True:
            with cursor:
                if sent[0] >= requests or time.perf_counter() >= deadline:
                    return
                sent[0] += 1
                request = stream.next()
            first = outcomes.claim_first(request.run_id)
            with outcomes.lock:
                outcomes.tally.attempt()
            view = runs[request.run_id].views[request.view]
            begin = time.perf_counter()
            with stack.span("serve.request") as root:
                try:
                    with stack.span("serve.submit"):
                        future = service.submit(
                            request.kind, request.run_id, data_id=request.data_id, view=view
                        )
                    if root is not None:
                        recorder.own(future, root)
                    answer = future.result(timeout=REQUEST_TIMEOUT_S)
                except Exception as exc:  # noqa: BLE001 - every failure is counted
                    outcomes.failed(exc)
                else:
                    outcomes.done(request, first, time.perf_counter() - begin, answer)

    threads = [threading.Thread(target=client, name="perfbench-client-%d" % n) for n in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return outcomes


def check_answers(
    warehouse: SqliteWarehouse,
    samples: List[Tuple[Request, object]],
    runs: Dict[str, RunInput],
    tally: Tally,
) -> None:
    """Re-derive a seeded sample of answers with a fresh uncached reasoner."""
    reference = ProvenanceReasoner(warehouse, strategy="uncached")
    checked = sorted(samples, key=lambda pair: pair[0].index)[:CHECKED_ANSWERS]
    for request, answer in checked:
        view = runs[request.run_id].views[request.view]
        if request.kind == "deep":
            expected = reference.deep(request.run_id, request.data_id, view=view)
        elif request.kind == "reverse":
            expected = reference.reverse(request.run_id, request.data_id, view=view)
        else:
            if view is None:
                spec = warehouse.get_spec(warehouse.run_spec_id(request.run_id))
                view = admin_view(spec)
            composite = reference.composite_run(request.run_id, view)
            expected = tuple(sorted(composite.visible_data()))
        if inputs.canonical(expected) != inputs.canonical(answer):
            tally.fail("wrong_answer", "%s %s %s" % (request.kind, request.run_id, request.data_id))


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------


class SessionViews:
    """A biologist's session on a working set that fits every cache.

    4 classes x 2 workflows x {small, medium, large} = 24 runs with 3
    views each (72 composites against the reasoner's 256-run and
    1,024-composite capacities).  The large runs are batch-loaded; the
    small and medium ones arrived live and are streamed.  The run and
    composite caches are warmed with one zoom per run and view — the
    first of which is each run's first touch.  Then 2 closed-loop clients
    send 50% deep, 20% reverse and 30% zoom requests over Zipf-skewed runs.
    """

    name = "session-views"
    #: Run popularity: Zipf exponent, or ``None`` for uniform.
    zipf: Optional[float] = 1.0
    #: Rounds of an untraced run.  A set-up's first touches, batch load
    #: and stream each last well under a second, so each round samples
    #: the host's speed at one moment; more rounds make their medians
    #: steadier.
    rounds = 16
    #: Requests per second of window: about the rate this workload ran at
    #: on the 2-core host it was tuned on.
    nominal_qps = 300

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.workdir = workdir
        self.stack: Optional[Stack] = None
        self.workflows: List[Workflow] = []
        self.runs: Dict[str, RunInput] = {}
        self.requests: Optional[RequestStream] = None
        #: Batch-twin checksums of the streamed runs, from the first set-up.
        self.twins: Dict[str, str] = {}
        self.sizes: Dict[str, int] = {}

    def prepare(self) -> None:
        """Generate the archive and the request stream, once per run.

        Generation is the benchmark's own input, not the program's
        set-up, so it is neither repeated nor timed.  The archive is then
        frozen out of the garbage collector's reach: collections during
        set-up and the window scan only the program's own objects.
        """
        self.workflows = self.generate(random.Random(inputs.ARCHIVE_SEED))
        runs = inputs.all_runs(self.workflows)
        self.runs = {run.run_id: run for run in runs}
        self.requests = RequestStream(self.seed, runs, zipf=self.zipf)
        self.sizes = {
            "workflows": len(self.workflows),
            "runs": len(runs),
            "streamed_runs": sum(run.streamed for run in runs),
            "epochs": sum(len(run.epochs) for run in runs),
            "steps": sum(run.simulation.run.num_steps() for run in runs),
        }
        gc.collect()
        gc.freeze()

    def generate(self, rng: random.Random) -> List[Workflow]:
        return inputs.generate_workflows(
            rng, "s", per_class=2, plan=lambda _n: (("large",), ("small", "medium"))
        )

    def warm(self, runs: List[RunInput], measure: Measure) -> None:
        service = self.stack.service
        touches = []
        for run in runs:
            for number, name in enumerate(VIEW_NAMES):
                begin = time.perf_counter()
                service.query("zoom", run.run_id, view=run.views[name], timeout=REQUEST_TIMEOUT_S)
                if number == 0:
                    touches.append(time.perf_counter() - begin)
        measure.first_touch_p50_s.append(percentile(touches, 50))

    def setup(self, measure: Measure, recorder: Optional[Recorder]) -> None:
        """Load, stream and warm the prepared archive on a fresh warehouse, timed.

        The previous round's stack is gone and collected first.  The
        streamed runs' checksums are checked after the clock stops.
        """
        gc.collect()
        workflows = self.workflows
        started = time.perf_counter()
        stack = self.stack = Stack(os.path.join(self.workdir, "%s.sqlite" % self.name), recorder)
        measure.ingest_runs_per_s.append(bulk_load(stack, workflows, measure.tally))
        streamed = stream_all(stack, [run for w in workflows for run in w.streamed], measure)
        stack.service.start()
        self.warm(inputs.all_runs(workflows), measure)
        measure.setup_s.append(time.perf_counter() - started)
        if not measure.peak_rss_mb:
            measure.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if not self.twins:
            self.twins = batch_twin_checksums(workflows)
        check_checksums(stack.warehouse, streamed, self.twins, measure.tally)

    def window(self, seconds: float, measure: Measure) -> Outcomes:
        """Time one slice of the closed loop, continuing the request stream.

        The slice is a fixed number of requests, ``seconds`` at the
        workload's nominal rate, so every run of a seed sends the same
        sequence and the same share of it misses the caches; a slice cut
        by the clock would send more requests on a fast host, and the
        later requests of a window hit more often.
        """
        gc.collect()
        outcomes = closed_loop(
            self.stack, self.requests, self.runs,
            max(MIN_WINDOW_REQUESTS, round(seconds * self.nominal_qps)),
            seconds * DEADLINE_FACTOR,
        )
        measure.query_s.extend(outcomes.latencies)
        measure.query_p50_s.append(percentile(outcomes.latencies, 50))
        measure.queries_done += len(outcomes.completions)
        measure.window_s += max(outcomes.completions) - outcomes.started
        return outcomes

    def finish(self, measure: Measure, outcomes: Outcomes) -> None:
        """Check the window's answers, then close the stack and record its size."""
        stack = self.stack
        stack.service.stop()
        measure.tally.merge(outcomes.tally)
        check_answers(stack.warehouse, outcomes.samples, self.runs, measure.tally)
        rows = sum(len(stack.warehouse.io_rows(run_id)) for run_id in stack.warehouse.list_runs())
        measure.db_bytes_per_row = stack.close() / rows
        self.stack = None


class ArchiveSweep(SessionViews):
    """A curator sweeping an archive larger than the caches.

    4 classes x 10 workflows x 10 runs (8 small, 2 medium) = 400 runs and
    1,200 run/view pairs against 256 cached runs and 1,024 composites.
    The first workflow of each class streams its runs; the rest are
    batch-loaded.  Nothing is warmed: each run's first request in a
    window is its first touch (the paper's initial query).  Runs are drawn
    uniformly by 2 closed-loop clients, so warehouse reads and cache
    eviction dominate and the result cache rarely hits.
    """

    name = "archive-sweep"
    zipf = None
    #: Fewer rounds: a set-up here loads 360 runs, and a window needs
    #: about 900 requests to touch most of the 400 runs and evict.
    rounds = 12
    nominal_qps = 450

    def generate(self, rng: random.Random) -> List[Workflow]:
        kinds = ("small",) * 8 + ("medium",) * 2
        return inputs.generate_workflows(
            rng, "a", per_class=10,
            plan=lambda number: ((), kinds) if number == 1 else (kinds, ()),
        )

    def warm(self, runs: List[RunInput], measure: Measure) -> None:
        """Nothing: the window's first request on a run is its first touch."""

    def window(self, seconds: float, measure: Measure) -> Outcomes:
        outcomes = super().window(seconds, measure)
        measure.first_touch_p50_s.append(percentile(outcomes.first_touch, 50))
        return outcomes


WORKLOADS = {cls.name: cls for cls in (SessionViews, ArchiveSweep)}
