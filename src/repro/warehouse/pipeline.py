"""Batched ingestion: shape each run once, bulk-write the rows.

:func:`load_dataset` is the reference ingestion semantics — one run at a
time, one statement at a time.  This module is the high-volume path.  It
splits a workload into the two halves every provenance loader has:

* **prepare** — per-run work that is a *pure function* of the run: graph
  validation, shaping the relational rows (steps, io, user inputs, final
  outputs), computing the raw lint findings over those rows, and — when
  ingestion-time labelling is on — the reachability labels
  (:func:`~repro.provenance.labels.labels_from_rows`).  Runs are
  prepared inline, one after another, in workload order.
* **write** — committing a whole batch of prepared runs to the warehouse
  in a single transaction through the backends' ``store_many`` bulk API
  (prepared ``executemany`` over the pre-shaped tuples on SQLite).

The pipeline guarantees **result parity with the serial path**: the same
workload ingested through :func:`ingest_dataset` — at any ``batch_size``
— produces byte-identical warehouse rows, identical lint findings and
identical ``lint.<RULE_ID>`` metric counts as a plain
:func:`~repro.warehouse.loader.load_dataset` call.  ``tests/test_pipeline.py``
asserts this on generated workloads for both backends.

The one *failure-path* difference is batch atomicity: the serial path
commits run ``k`` before looking at run ``k+1``, so a mid-workload lint
rejection leaves every earlier run stored.  Here a batch is gated as a
unit **before** its single transaction, so a ``strict=True`` rejection (or
an invalid run) aborts the whole failing batch — earlier batches stay
committed, the failing batch leaves no partial rows behind.

Every batch is also **journalled** (:mod:`repro.warehouse.recovery`):
pending rows with content checksums before the commit, committed marks
after — so a crashed load is repairable (``zoom recover``) and resumable
(``ingest_dataset(resume=True)``), and ``on_error="quarantine"`` diverts
failing runs into the warehouse quarantine instead of aborting the
dataset.

Per-stage observability lands in the default metrics registry:
``ingest.prepare`` / ``ingest.gate`` / ``ingest.write`` timers and the
``ingest.runs`` / ``ingest.batches`` / ``ingest.specs`` /
``ingest.skipped`` / ``ingest.quarantined`` counters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import (
    TYPE_CHECKING,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..core.errors import RunError, WarehouseError, ZoomError
from ..core.spec import INPUT, OUTPUT, WorkflowSpec
from ..core.view import admin_view, blackbox_view
from ..faults import FaultPlan
from ..faults import hit as fault_hit
from ..obs.metrics import get_registry
from ..run.executor import SimulationResult
from ..run.run import WorkflowRun
from .base import ProvenanceWarehouse
from .loader import LoadedSpec, load_spec
from .recovery import (
    JournalEntry,
    QuarantineRecord,
    event_index_of,
    recover,
    run_checksum,
)
from .schema import DIR_IN, DIR_OUT

if TYPE_CHECKING:  # pragma: no cover — annotation-only, avoids import cycles
    from ..lint.findings import Finding
    from ..provenance.labels import LineageLabels

#: Default number of prepared runs committed per transaction.
DEFAULT_BATCH_SIZE = 32


@dataclass
class PreparedRun:
    """One run, reduced to the exact rows the warehouse will hold.

    Produced by the prepare stage and consumed by the backends'
    ``store_many``.  ``findings`` are the *raw* rule findings — the gate
    applies the linter's config and metrics policy.
    """

    run_id: str                        #: warehouse id ("<spec_id>/runN")
    spec_id: str
    source_run_id: str                 #: the run graph's own id (lint subject)
    step_rows: List[Tuple[str, str]] = field(default_factory=list)
    io_rows: List[Tuple[str, str, str]] = field(default_factory=list)
    user_inputs: List[str] = field(default_factory=list)
    final_outputs: List[str] = field(default_factory=list)
    findings: List["Finding"] = field(default_factory=list)
    labels: Optional["LineageLabels"] = None
    #: Deferred ``run.validate()`` failure: raised at gate time, *after*
    #: the lint gate, mirroring the serial lint-then-store order.
    error: Optional[Exception] = None
    #: Content hash of the shaped rows (:func:`~repro.warehouse.recovery.
    #: run_checksum`), journalled before the batch commit so recovery can
    #: tell a fully stored run from a half-applied one.
    checksum: str = ""


@dataclass
class _PrepareTask:
    """Input of the prepare stage."""

    run: WorkflowRun
    spec_id: str
    run_id: str
    labels: bool = False


def prepare_run(task: _PrepareTask) -> PreparedRun:
    """The prepare stage: rows + lint facts + (optionally) the labels.

    Pure function of the task — no warehouse access, no shared state.
    The rows are shaped exactly once and shared by all three consumers
    (lint, store, labels); the serial path extracts them from the graph
    twice and reads them back from SQL a third time for the label build.
    """
    from ..lint.rules_run import RunFacts, lint_run_facts
    from ..provenance.labels import labels_from_rows

    run = task.run
    prepared = PreparedRun(
        run_id=task.run_id, spec_id=task.spec_id, source_run_id=run.run_id
    )
    try:
        run.validate()
    except ZoomError as exc:
        prepared.error = exc
    # Shape rows straight off the adjacency maps: one dict walk per step
    # instead of the per-step edge-view objects of inputs_of/outputs_of,
    # which dominate the prepare profile at warehouse run counts.
    pred = run.graph.pred
    succ = run.graph.succ
    for step in run.steps():
        step_id = step.step_id
        if step_id not in pred:
            # Same failure the serial path's inputs_of() raises on a step
            # table that disagrees with the graph.
            raise RunError("unknown run node %r" % step_id)
        prepared.step_rows.append((step_id, step.module))
        ins: set = set()
        for attrs in pred[step_id].values():
            ins |= attrs["data"]
        outs: set = set()
        for attrs in succ[step_id].values():
            outs |= attrs["data"]
        for data_id in sorted(ins):
            prepared.io_rows.append((step_id, data_id, DIR_IN))
        for data_id in sorted(outs):
            prepared.io_rows.append((step_id, data_id, DIR_OUT))
    user_inputs: set = set()
    for attrs in succ[INPUT].values():
        user_inputs |= attrs["data"]
    final_outputs: set = set()
    for attrs in pred[OUTPUT].values():
        final_outputs |= attrs["data"]
    prepared.user_inputs = sorted(user_inputs)
    prepared.final_outputs = sorted(final_outputs)

    # Identical facts to RunFacts.from_run(run) — same row order, same
    # spec attachment — so the findings match the serial lint_run() pass.
    facts = RunFacts.from_rows(
        run.run_id,
        list(prepared.step_rows),
        list(prepared.io_rows),
        frozenset(prepared.user_inputs),
        frozenset(prepared.final_outputs),
    )
    facts.attach_spec(run.spec.modules, run.spec.edges())
    prepared.findings = lint_run_facts(facts)

    if task.labels and prepared.error is None:
        prepared.labels = labels_from_rows(
            task.run_id,
            prepared.step_rows,
            prepared.io_rows,
            prepared.user_inputs,
        )
    prepared.checksum = run_checksum(
        prepared.spec_id,
        prepared.step_rows,
        prepared.io_rows,
        prepared.user_inputs,
        prepared.final_outputs,
    )
    return prepared


def _prepare_quarantinable(task: _PrepareTask) -> PreparedRun:
    """:func:`prepare_run` that converts its own failures into records.

    Only used under ``on_error="quarantine"``: a raising prepare would
    end the ``map`` over the tasks and abort the whole dataset — exactly
    what quarantine mode promises not to do.
    """
    try:
        return prepare_run(task)
    except ZoomError as exc:
        prepared = PreparedRun(
            run_id=task.run_id, spec_id=task.spec_id,
            source_run_id=task.run.run_id,
        )
        prepared.error = exc
        return prepared


def _annotate_committed(exc: BaseException, committed: List[str]) -> None:
    """Append the committed-so-far run ids to an aborting exception.

    A mid-workload failure leaves every earlier batch committed; without
    this note the caller has no record of how far the load got.  The
    original exception object is re-raised unchanged in type (tests and
    callers match on type and message), only its first arg is extended.
    """
    if not committed or not exc.args:
        return
    note = " [committed before failure: %s]" % ", ".join(committed)
    exc.args = (str(exc.args[0]) + note,) + exc.args[1:]


def _quarantine_prepared(
    warehouse: ProvenanceWarehouse,
    prepared: PreparedRun,
    exc: BaseException,
) -> None:
    """Divert a failed run into the warehouse quarantine."""
    warehouse.quarantine_add(QuarantineRecord(
        run_id=prepared.run_id,
        spec_id=prepared.spec_id,
        source_run_id=prepared.source_run_id,
        reason="%s: %s" % (type(exc).__name__, exc),
        event_index=event_index_of(exc),
        step_rows=list(prepared.step_rows),
        io_rows=list(prepared.io_rows),
        user_inputs=list(prepared.user_inputs),
        final_outputs=list(prepared.final_outputs),
    ))
    get_registry().counter("ingest.quarantined").increment()


def _resumable_load_spec(
    warehouse: ProvenanceWarehouse,
    spec: WorkflowSpec,
    with_standard_views: bool,
    strict: bool,
) -> LoadedSpec:
    """:func:`load_spec` that tolerates a spec the crashed load stored.

    An equal stored spec is reused (missing standard views are filled
    in); a *conflicting* one is an error — resuming must never silently
    mix two workloads under one id.
    """
    spec_id = spec.name
    if spec_id not in warehouse.list_specs():
        return load_spec(
            warehouse, spec, with_standard_views=with_standard_views,
            strict=strict,
        )
    if warehouse.get_spec(spec_id) != spec:
        raise WarehouseError(
            "cannot resume: stored spec %r differs from the workload's"
            % spec_id
        )
    record = LoadedSpec(spec_id=spec_id)
    if with_standard_views:
        stored_views = set(warehouse.list_views(spec_id))
        for view in (admin_view(spec), blackbox_view(spec)):
            view_id = "%s/%s" % (spec_id, view.name)
            if view_id not in stored_views:
                warehouse.store_view(view, spec_id, view_id=view_id)
            record.view_ids[view.name] = view_id
    return record


def ingest_dataset(
    warehouse: ProvenanceWarehouse,
    items: Iterable[Tuple[WorkflowSpec, Sequence[SimulationResult]]],
    *,
    batch_size: int = DEFAULT_BATCH_SIZE,
    with_standard_views: bool = True,
    strict: bool = False,
    labels: bool = False,
    on_error: str = "abort",
    resume: bool = False,
    faults: Optional[FaultPlan] = None,
) -> List[LoadedSpec]:
    """Ingest a workload through the batched pipeline.

    Parameters
    ----------
    batch_size:
        Runs per ``store_many`` transaction (and per strict-gate unit).
    with_standard_views / strict:
        As in :func:`~repro.warehouse.loader.load_dataset`.
    labels:
        Also compute the compact reachability labels
        (:func:`~repro.provenance.labels.labels_from_rows`) in the prepare
        stage and persist them with the batch, so ``strategy="labeled"``
        queries never pay a first-query build.
    on_error:
        ``"abort"`` (default) keeps the historical semantics: the first
        failing run aborts the load, with the committed-so-far run ids
        appended to the exception message.  ``"quarantine"`` isolates
        failing runs — lint-gate rejections, validation errors, per-run
        storage failures — into the warehouse quarantine
        (``zoom quarantine list|show|retry``) and keeps loading; each
        diversion bumps the ``ingest.quarantined`` counter.
    resume:
        Continue a crashed load: first :func:`~repro.warehouse.recovery.
        recover` settles the ingest journal (integrity repair, roll
        forward/back), then every run the warehouse already holds is
        skipped (``ingest.skipped`` counter; skipped runs are *not*
        counted under ``ingest.runs``) and only the remainder is
        prepared and stored.  Specs and views stored by the crashed
        attempt are reused.
    faults:
        A :class:`~repro.faults.FaultPlan` for the pipeline-level fault
        sites (``journal.pending``, ``journal.mark``, per-run failures).
        Defaults to the warehouse's own ``faults`` attribute so one plan
        covers both layers.

    Every batch is journalled ``pending`` (run ids + content checksums)
    before its transaction commits and marked ``committed`` after, so a
    crash at any point is repairable by ``zoom recover`` and resumable
    with ``resume=True`` — the chaos suite asserts convergence to the
    uninterrupted result.  Specs (with their views) are loaded first,
    serially — they are few and cheap.  Runs then flow through
    prepare -> gate -> journal -> bulk write in deterministic workload
    order.  Returns one :class:`LoadedSpec` per item, exactly as the
    serial path does.
    """
    from ..lint import Linter

    if batch_size < 1:
        raise ValueError("batch_size must be >= 1, not %d" % batch_size)
    if on_error not in ("abort", "quarantine"):
        raise ValueError(
            "on_error must be 'abort' or 'quarantine', not %r" % on_error
        )
    registry = get_registry()
    linter = Linter()
    plan = faults if faults is not None else getattr(warehouse, "faults", None)

    already: frozenset = frozenset()
    open_streams: frozenset = frozenset()
    if resume:
        recover(warehouse)
        # After recovery every stored run is verified (journal-committed
        # or checksum-matched), so presence alone is the skip criterion —
        # it also covers runs a serial, journal-less path loaded.
        already = frozenset(warehouse.list_runs())
        # A run still open for streaming appends is mid-flight under the
        # other ingestion protocol: its rows are a valid prefix, not the
        # finished run, so neither skipping nor re-storing it is right.
        open_streams = frozenset(warehouse.stream_states())

    records: List[LoadedSpec] = []
    tasks: List[_PrepareTask] = []
    owners: List[LoadedSpec] = []  # owners[i] owns tasks[i]'s run id
    for spec, simulations in items:
        if resume:
            record = _resumable_load_spec(
                warehouse, spec, with_standard_views, strict
            )
        else:
            record = load_spec(
                warehouse, spec, with_standard_views=with_standard_views,
                strict=strict,
            )
        registry.counter("ingest.specs").increment()
        records.append(record)
        for number, simulation in enumerate(simulations, start=1):
            run = simulation.run
            if run.spec is not spec and run.spec != spec:
                raise WarehouseError(
                    "run %r does not match stored spec %r"
                    % (run.run_id, record.spec_id)
                )
            run_id = "%s/run%d" % (record.spec_id, number)
            if run_id in open_streams:
                raise WarehouseError(
                    "cannot resume over run %r: it is open for streaming"
                    " appends — finalize it (or let the streaming ingestor"
                    " resume it) instead of re-ingesting the batch" % run_id
                )
            if run_id in already:
                record.run_ids.append(run_id)
                registry.counter("ingest.skipped").increment()
                continue
            tasks.append(_PrepareTask(
                run=run, spec_id=record.spec_id, run_id=run_id, labels=labels,
            ))
            owners.append(record)

    committed_ids: List[str] = []
    batch_counter = [0]

    def _flush(batch: List[PreparedRun], batch_owners: List[LoadedSpec]) -> None:
        batch_counter[0] += 1
        survivors: List[PreparedRun] = []
        survivor_owners: List[LoadedSpec] = []
        with registry.time("ingest.gate"):
            for prepared, owner in zip(batch, batch_owners):
                try:
                    if plan is not None:
                        plan.check_run(prepared.run_id)
                    report = linter.report_findings(prepared.findings)
                    linter.gate(
                        report, "run %r" % prepared.source_run_id, strict
                    )
                    if prepared.error is not None:
                        raise prepared.error
                except ZoomError as exc:
                    if on_error == "quarantine":
                        _quarantine_prepared(warehouse, prepared, exc)
                        continue
                    _annotate_committed(exc, committed_ids)
                    raise
                survivors.append(prepared)
                survivor_owners.append(owner)
        if not survivors:
            return
        warehouse.journal_begin([
            JournalEntry(
                run_id=p.run_id, spec_id=p.spec_id, checksum=p.checksum,
                batch=batch_counter[0],
            )
            for p in survivors
        ])
        # Crash window: pending journal rows exist, the batch has not
        # committed — the "torn journal" state WH041 reports and a
        # resumed load re-ingests.
        fault_hit(plan, "journal.pending")
        stored: List[Tuple[PreparedRun, LoadedSpec]] = []
        try:
            with registry.time("ingest.write"):
                warehouse.store_many(survivors)
        except ZoomError as exc:
            if on_error == "abort":
                # The batch transaction stored nothing; its pending
                # journal rows are a truthful record of the aborted
                # intent (torn journal — resumable).
                _annotate_committed(exc, committed_ids)
                raise
            # Quarantine mode: salvage the batch run by run, diverting
            # only the runs that actually fail.
            for prepared, owner in zip(survivors, survivor_owners):
                try:
                    warehouse.store_many([prepared])
                except ZoomError as exc_run:
                    warehouse.journal_discard([prepared.run_id])
                    _quarantine_prepared(warehouse, prepared, exc_run)
                else:
                    stored.append((prepared, owner))
        else:
            stored = list(zip(survivors, survivor_owners))
        # Crash window: the batch is durably committed but still marked
        # pending — recovery rolls it forward by checksum.
        fault_hit(plan, "journal.mark")
        warehouse.journal_commit([p.run_id for p, _owner in stored])
        registry.counter("ingest.batches").increment()
        registry.counter("ingest.runs").increment(len(stored))
        for prepared, owner in stored:
            owner.run_ids.append(prepared.run_id)
            committed_ids.append(prepared.run_id)

    def _consume(results: Iterator[PreparedRun]) -> None:
        batch: List[PreparedRun] = []
        batch_owners: List[LoadedSpec] = []
        prepare_timer = registry.timer("ingest.prepare")
        position = 0
        while True:
            started = perf_counter()
            prepared = next(results, None)
            prepare_timer.observe(perf_counter() - started)
            if prepared is None:
                break
            batch.append(prepared)
            batch_owners.append(owners[position])
            position += 1
            if len(batch) >= batch_size:
                _flush(batch, batch_owners)
                batch, batch_owners = [], []
        if batch:
            _flush(batch, batch_owners)

    prepare = _prepare_quarantinable if on_error == "quarantine" else prepare_run
    _consume(map(prepare, tasks))
    return records


__all__ = [
    "DEFAULT_BATCH_SIZE",
    "PreparedRun",
    "ingest_dataset",
    "prepare_run",
]
