"""Pure-Python in-memory warehouse backend.

Stores the same relations as the SQLite backend in plain dictionaries with
secondary indexes (producer-by-data, inputs/outputs-by-step) and computes
the deep-provenance closure by breadth-first search.  This is the fastest
backend for the interactive path and the reference for conformance tests.

**Thread-affinity contract.**  Read methods are safe from any thread —
records are fully built before they are published into the run table, so a
concurrent reader sees either the whole run or no run.  Mutating methods
serialize on an internal lock (the id-freshness check and the publish are
one atomic step), mirroring the SQLite backend's single-writer discipline
without its connection affinity.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, replace
from typing import (
    TYPE_CHECKING,
    Deque,
    Dict,
    FrozenSet,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..core.errors import WarehouseError
from ..core.spec import INPUT, OUTPUT, WorkflowSpec
from ..core.view import UserView
from ..faults import FaultPlan
from ..obs.retry import with_retries
from ..provenance.result import ProvenanceResult, ProvenanceRow
from ..run.run import WorkflowRun
from ..sanitize import guard, make_lock
from .base import ProvenanceWarehouse, StreamState
from .recovery import JOURNAL_COMMITTED, JournalEntry, QuarantineRecord
from .schema import DIR_IN, DIR_OUT

if TYPE_CHECKING:  # pragma: no cover — annotation-only, avoids an import cycle
    from ..provenance.labels import LineageLabels
    from .pipeline import PreparedRun


@dataclass
class _RunRecord:
    """All rows of one run, with the secondary indexes queries need."""

    spec_id: str
    steps: Dict[str, str] = field(default_factory=dict)  # step -> module
    io: List[Tuple[str, str, str]] = field(default_factory=list)
    producer: Dict[str, str] = field(default_factory=dict)  # data -> node
    inputs: Dict[str, Set[str]] = field(default_factory=dict)  # step -> data
    outputs: Dict[str, Set[str]] = field(default_factory=dict)
    user_inputs: Set[str] = field(default_factory=set)
    final_outputs: Set[str] = field(default_factory=set)
    input_who: Dict[str, str] = field(default_factory=dict)
    annotations: Dict[str, Dict[str, str]] = field(default_factory=dict)
    # Compact reachability labels (None until built): the frozen
    # LineageLabels structure, served as-is by label_lookup.
    labels: Optional["LineageLabels"] = None


class InMemoryWarehouse(ProvenanceWarehouse):
    """Dictionary-backed implementation of :class:`ProvenanceWarehouse`."""

    def __init__(self, faults: Optional[FaultPlan] = None) -> None:
        #: Serializes mutations so the freshness check and the publish are
        #: atomic under concurrent writers (see module docstring).  Reads
        #: stay lock-free — CPython dict loads are atomic — so the tables
        #: follow the write-locked / read-free contract (sanitizer mode
        #: ``"w"``).
        self._mutate = make_lock("warehouse.mutate", recursive=True)
        self._specs: Dict[str, WorkflowSpec] = guard(
            {}, self._mutate, "memory._specs", mode="w"
        )  # guarded-by: _mutate
        self._views: Dict[str, Tuple[str, UserView]] = guard(
            {}, self._mutate, "memory._views", mode="w"
        )  # guarded-by: _mutate
        self._runs: Dict[str, _RunRecord] = guard(
            {}, self._mutate, "memory._runs", mode="w"
        )  # guarded-by: _mutate
        #: Ingest journal (run id -> entry), the in-memory analogue of the
        #: SQLite ``_ingest_journal`` table.  It lives and dies with the
        #: process, so "crash recovery" here means recovering from an
        #: aborted `ingest_dataset` call within the same process.
        self._journal: Dict[str, JournalEntry] = guard(
            {}, self._mutate, "memory._journal", mode="w"
        )  # guarded-by: _mutate
        #: Quarantined runs (run id -> record).
        self._quarantine: Dict[str, QuarantineRecord] = guard(
            {}, self._mutate, "memory._quarantine", mode="w"
        )  # guarded-by: _mutate
        #: Open streaming runs (run id -> StreamState), the in-memory
        #: analogue of the SQLite ``_stream_state`` table.
        self._streams: Dict[str, StreamState] = guard(
            {}, self._mutate, "memory._streams", mode="w"
        )  # guarded-by: _mutate
        #: Fault-injection schedule (tests only; ``None`` in production).
        self.faults = faults

    def _hit(self, site: str) -> None:
        """Fire the fault plan at an instrumented site (no-op without one)."""
        if self.faults is not None:
            self.faults.hit(site)

    # ------------------------------------------------------------------
    # Specifications
    # ------------------------------------------------------------------

    def store_spec(self, spec: WorkflowSpec, spec_id: Optional[str] = None) -> str:
        with self._mutate:
            identifier = self._fresh_id(spec_id, spec.name, self._specs)
            self._specs[identifier] = spec
        return identifier

    def get_spec(self, spec_id: str) -> WorkflowSpec:
        try:
            return self._specs[spec_id]
        except KeyError:
            raise self._missing("spec", spec_id) from None

    def list_specs(self) -> List[str]:
        return sorted(self._specs)

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------

    def store_view(
        self, view: UserView, spec_id: str, view_id: Optional[str] = None
    ) -> str:
        stored_spec = self.get_spec(spec_id)
        if view.spec != stored_spec:
            raise WarehouseError(
                "view %r does not match stored spec %r" % (view.name, spec_id)
            )
        with self._mutate:
            identifier = self._fresh_id(view_id, view.name, self._views)
            self._views[identifier] = (spec_id, view)
        return identifier

    def get_view(self, view_id: str) -> UserView:
        try:
            return self._views[view_id][1]
        except KeyError:
            raise self._missing("view", view_id) from None

    def list_views(self, spec_id: Optional[str] = None) -> List[str]:
        return sorted(
            vid
            for vid, (sid, _view) in self._views.items()
            if spec_id is None or sid == spec_id
        )

    def view_rows(self, view_id: str) -> Tuple[str, str, Dict[str, List[str]]]:
        try:
            spec_id, view = self._views[view_id]
        except KeyError:
            raise self._missing("view", view_id) from None
        return (
            spec_id,
            view.name,
            {c: sorted(view.members(c)) for c in sorted(view.composites)},
        )

    # ------------------------------------------------------------------
    # Runs
    # ------------------------------------------------------------------

    def store_run(
        self, run: WorkflowRun, spec_id: str, run_id: Optional[str] = None
    ) -> str:
        stored_spec = self.get_spec(spec_id)
        if run.spec != stored_spec:
            raise WarehouseError(
                "run %r does not match stored spec %r" % (run.run_id, spec_id)
            )
        run.validate()  # the warehouse only ever holds valid runs
        record = _RunRecord(spec_id=spec_id)
        for step in run.steps():
            record.steps[step.step_id] = step.module
            record.inputs[step.step_id] = run.inputs_of(step.step_id)
            record.outputs[step.step_id] = run.outputs_of(step.step_id)
            for data_id in sorted(record.inputs[step.step_id]):
                record.io.append((step.step_id, data_id, DIR_IN))
            for data_id in sorted(record.outputs[step.step_id]):
                record.io.append((step.step_id, data_id, DIR_OUT))
                record.producer[data_id] = step.step_id
        record.user_inputs = set(run.user_inputs())
        for data_id in record.user_inputs:
            record.producer[data_id] = INPUT
        record.final_outputs = set(run.final_outputs())
        with self._mutate:
            identifier = self._fresh_id(run_id, run.run_id, self._runs)
            self._runs[identifier] = record
        return identifier

    @with_retries()
    def store_many(self, prepared: Sequence["PreparedRun"]) -> List[str]:
        """Bulk-store prepared runs; all-or-nothing, like one transaction.

        Builds every :class:`_RunRecord` from the pre-shaped rows first
        (checking id freshness against one precomputed set) and only then
        publishes them into the run table, so a failing batch leaves the
        warehouse untouched.  Prepared labels are installed directly, as
        :meth:`_store_lineage_labels` stores them.
        """
        self._hit("store_many.begin")
        batch = list(prepared)
        self._mutate.acquire()
        try:
            return self._store_many_locked(batch)
        finally:
            self._mutate.release()

    def _store_many_locked(self, batch: List["PreparedRun"]) -> List[str]:
        existing = set(self._runs)
        records: List[Tuple[str, _RunRecord]] = []
        for p in batch:
            if p.spec_id not in self._specs:
                raise self._missing("spec", p.spec_id)
            self._fresh_id(p.run_id, p.run_id, existing)
            existing.add(p.run_id)
            record = _RunRecord(spec_id=p.spec_id)
            for step_id, module in p.step_rows:
                record.steps[step_id] = module
                record.inputs[step_id] = set()
                record.outputs[step_id] = set()
            for step_id, data_id, direction in p.io_rows:
                record.io.append((step_id, data_id, direction))
                if direction == DIR_OUT:
                    record.outputs[step_id].add(data_id)
                    record.producer[data_id] = step_id
                else:
                    record.inputs[step_id].add(data_id)
            record.user_inputs = set(p.user_inputs)
            for data_id in record.user_inputs:
                record.producer[data_id] = INPUT
            record.final_outputs = set(p.final_outputs)
            if p.labels is not None:
                record.labels = p.labels
            records.append((p.run_id, record))
        published = 0
        for run_id, record in records:
            self._runs[run_id] = record
            published += 1
            if published == 1:
                # Unlike SQLite there is no transaction to roll a crash
                # back: a kill here leaves the batch genuinely
                # half-published, the state `recover()` settles by
                # checksum (complete runs roll forward, the rest stay
                # torn in the journal for a resumed load).
                self._hit("store_many.mid")
        return [run_id for run_id, _record in records]

    # ------------------------------------------------------------------
    # Ingest journal and quarantine (crash-safe ingestion)
    # ------------------------------------------------------------------

    def journal_begin(self, entries: Sequence["JournalEntry"]) -> None:
        with self._mutate:
            for entry in entries:
                self._journal[entry.run_id] = entry

    def journal_commit(self, run_ids: Sequence[str]) -> None:
        with self._mutate:
            for run_id in run_ids:
                entry = self._journal.get(run_id)
                if entry is not None:
                    self._journal[run_id] = JournalEntry(
                        run_id=entry.run_id, spec_id=entry.spec_id,
                        checksum=entry.checksum, batch=entry.batch,
                        state=JOURNAL_COMMITTED,
                    )

    def journal_discard(self, run_ids: Sequence[str]) -> None:
        with self._mutate:
            for run_id in run_ids:
                self._journal.pop(run_id, None)

    def journal_entries(
        self, state: Optional[str] = None
    ) -> List["JournalEntry"]:
        return [
            entry
            for run_id, entry in sorted(self._journal.items())
            if state is None or entry.state == state
        ]

    def quarantine_add(self, record: "QuarantineRecord") -> None:
        with self._mutate:
            self._quarantine[record.run_id] = record

    def quarantine_list(self) -> List[str]:
        return sorted(self._quarantine)

    def quarantine_get(self, run_id: str) -> "QuarantineRecord":
        try:
            return self._quarantine[run_id]
        except KeyError:
            raise self._missing("quarantined run", run_id) from None

    def quarantine_delete(self, run_id: str) -> None:
        with self._mutate:
            if run_id not in self._quarantine:
                raise self._missing("quarantined run", run_id)
            del self._quarantine[run_id]

    # ------------------------------------------------------------------
    # Streaming appends (open runs)
    # ------------------------------------------------------------------

    def stream_begin(
        self,
        run_id: str,
        spec_id: str,
        *,
        checksum: str,
        opened_at: Optional[float] = None,
    ) -> None:
        self.get_spec(spec_id)  # raise for unknown specs
        with self._mutate:
            identifier = self._fresh_id(run_id, run_id, self._runs)
            self._runs[identifier] = _RunRecord(spec_id=spec_id)
            self._streams[identifier] = StreamState(
                run_id=identifier, spec_id=spec_id, epoch=0,
                checksum=checksum, opened_at=opened_at,
            )

    def stream_state(self, run_id: str) -> Optional[StreamState]:
        return self._streams.get(run_id)

    def stream_states(self) -> Dict[str, StreamState]:
        return dict(self._streams)

    @with_retries()
    def stream_apply(
        self,
        run_id: str,
        *,
        epoch: int,
        checksum: str,
        step_rows: Sequence[Tuple[str, str]],
        io_rows: Sequence[Tuple[str, str, str]],
        user_inputs: Sequence[Tuple[str, str]],
        final_outputs: Sequence[str],
    ) -> None:
        """Copy-on-write epoch application.

        A *new* record is built from the published one, the delta is
        applied to the copy, and only then is the run table reference
        swapped — concurrent readers holding the old record see the
        previous epoch in full; readers arriving after the swap see the
        new one in full, without labels (they described the previous
        prefix; the next labeled query rebuilds them).  A crash or
        injected lock error at ``stream.append`` fires before the swap,
        so nothing is ever half-applied.
        """
        state = self._streams.get(run_id)
        if state is None:
            raise WarehouseError("run %r is not open for streaming" % run_id)
        old = self._record(run_id)
        record = _RunRecord(
            spec_id=old.spec_id,
            steps=dict(old.steps),
            io=list(old.io),
            producer=dict(old.producer),
            inputs={step: set(data) for step, data in old.inputs.items()},
            outputs={step: set(data) for step, data in old.outputs.items()},
            user_inputs=set(old.user_inputs),
            final_outputs=set(old.final_outputs),
            input_who=dict(old.input_who),
            annotations=old.annotations,
            labels=None,
        )
        for step_id, module in step_rows:
            record.steps[step_id] = module
            record.inputs.setdefault(step_id, set())
            record.outputs.setdefault(step_id, set())
        present = set(record.io)
        for row in io_rows:
            if row in present:
                continue
            present.add(row)
            step_id, data_id, direction = row
            record.io.append(row)
            if direction == DIR_OUT:
                owner = record.producer.get(data_id)
                if owner is not None and owner != step_id:
                    raise WarehouseError(
                        "data %r written by both %r and %r"
                        % (data_id, owner, step_id)
                    )
                record.outputs[step_id].add(data_id)
                record.producer[data_id] = step_id
            else:
                record.inputs[step_id].add(data_id)
        for data_id, who in user_inputs:
            record.user_inputs.add(data_id)
            record.producer[data_id] = INPUT
            if who != "user":
                record.input_who[data_id] = who
        record.final_outputs.update(final_outputs)
        self._hit("stream.append")
        with self._mutate:
            self._runs[run_id] = record
            self._streams[run_id] = replace(
                state, epoch=epoch, checksum=checksum
            )

    def stream_close(self, run_id: str) -> None:
        with self._mutate:
            if run_id not in self._streams:
                raise self._missing("open streaming run", run_id)
            del self._streams[run_id]

    def list_runs(self, spec_id: Optional[str] = None) -> List[str]:
        return sorted(
            rid
            for rid, record in self._runs.items()
            if spec_id is None or record.spec_id == spec_id
        )

    def run_spec_id(self, run_id: str) -> str:
        return self._record(run_id).spec_id

    def _record(self, run_id: str) -> _RunRecord:
        try:
            return self._runs[run_id]
        except KeyError:
            raise self._missing("run", run_id) from None

    # ------------------------------------------------------------------
    # Row-level primitives
    # ------------------------------------------------------------------

    def steps_of_run(self, run_id: str) -> List[Tuple[str, str]]:
        record = self._record(run_id)
        return sorted(record.steps.items())

    def io_rows(self, run_id: str) -> List[Tuple[str, str, str]]:
        return list(self._record(run_id).io)

    def user_inputs(self, run_id: str) -> FrozenSet[str]:
        return frozenset(self._record(run_id).user_inputs)

    def final_outputs(self, run_id: str) -> FrozenSet[str]:
        return frozenset(self._record(run_id).final_outputs)

    def producer_of(self, run_id: str, data_id: str) -> str:
        record = self._record(run_id)
        try:
            return record.producer[data_id]
        except KeyError:
            raise self._missing("data", data_id) from None

    def step_inputs(self, run_id: str, step_id: str) -> FrozenSet[str]:
        record = self._record(run_id)
        try:
            return frozenset(record.inputs[step_id])
        except KeyError:
            raise self._missing("step", step_id) from None

    def step_outputs(self, run_id: str, step_id: str) -> FrozenSet[str]:
        record = self._record(run_id)
        try:
            return frozenset(record.outputs[step_id])
        except KeyError:
            raise self._missing("step", step_id) from None

    def module_of_step(self, run_id: str, step_id: str) -> str:
        record = self._record(run_id)
        try:
            return record.steps[step_id]
        except KeyError:
            raise self._missing("step", step_id) from None

    # ------------------------------------------------------------------
    # User-input metadata and annotations
    # ------------------------------------------------------------------

    def user_input_who(self, run_id: str, data_id: str) -> str:
        record = self._record(run_id)
        if data_id not in record.user_inputs:
            raise self._missing("user input", data_id)
        return record.input_who.get(data_id, "user")

    def _set_user_input_who(self, run_id: str, who: Dict[str, str]) -> None:
        record = self._record(run_id)
        unknown = set(who) - record.user_inputs
        if unknown:
            raise WarehouseError(
                "not user inputs of %r: %s" % (run_id, sorted(unknown))
            )
        record.input_who.update(who)

    def annotate(self, run_id: str, subject: str, key: str, value: str) -> None:
        record = self._record(run_id)
        if subject not in record.steps and subject not in record.producer:
            raise self._missing("step or data", subject)
        record.annotations.setdefault(subject, {})[key] = value

    def annotations_of(self, run_id: str, subject: str) -> Dict[str, str]:
        return dict(self._record(run_id).annotations.get(subject, {}))

    def find_annotated(
        self, run_id: str, key: str, value: Optional[str] = None
    ) -> List[str]:
        record = self._record(run_id)
        return sorted(
            subject
            for subject, pairs in record.annotations.items()
            if key in pairs and (value is None or pairs[key] == value)
        )

    # ------------------------------------------------------------------
    # Compact reachability labels
    # ------------------------------------------------------------------

    def _store_lineage_labels(self, labels: "LineageLabels") -> None:
        self._record(labels.run_id).labels = labels

    def has_label_index(self, run_id: str) -> bool:
        return self._record(run_id).labels is not None

    def label_row_count(self, run_id: str) -> Optional[int]:
        labels = self._record(run_id).labels
        return None if labels is None else labels.num_rows()

    def label_index_version(self, run_id: str) -> Optional[int]:
        labels = self._record(run_id).labels
        return None if labels is None else labels.version

    def drop_label_index(self, run_id: Optional[str] = None) -> List[str]:
        targets = [run_id] if run_id is not None else self.list_runs()
        dropped: List[str] = []
        for target in targets:
            record = self._record(target)
            if record.labels is None:
                continue
            record.labels = None
            dropped.append(target)
        return dropped

    def label_lookup(self, run_id: str, data_id: str) -> ProvenanceResult:
        record = self._record(run_id)
        if record.labels is None:
            raise WarehouseError("run %r has no label index" % run_id)
        if data_id not in record.producer:
            raise self._missing("data", data_id)
        return record.labels.result_for(data_id)

    def label_rows_raw(self, run_id: str) -> Set[Tuple[str, int, int, str, str]]:
        labels = self._record(run_id).labels
        if labels is None:
            return set()
        return set(labels.iter_table_rows())

    def delete_run(self, run_id: str) -> None:
        with self._mutate:
            self._record(run_id)  # raise for unknown ids
            del self._runs[run_id]
            self._journal.pop(run_id, None)
            self._quarantine.pop(run_id, None)
            self._streams.pop(run_id, None)

    def get_run(self, run_id: str) -> WorkflowRun:
        """Snapshot-consistent run reconstruction.

        The base implementation re-fetches the run's relations through
        four separate accessor calls; under a concurrent streaming append
        the record reference could change between them, tearing the
        reconstruction across two epochs.  Records are immutable once
        published (appends swap in a fresh copy), so reading everything
        from ONE reference pins the snapshot.
        """
        record = self._record(run_id)
        spec = self.get_spec(record.spec_id)
        run = WorkflowRun(spec, run_id=run_id)
        for step_id, module in sorted(record.steps.items()):
            run.add_step(step_id, module)
        writer: Dict[str, str] = {d: INPUT for d in record.user_inputs}
        reads: List[Tuple[str, str]] = []
        for step_id, data_id, direction in record.io:
            if direction == DIR_OUT:
                if data_id in writer and writer[data_id] != step_id:
                    raise WarehouseError(
                        "data %r written by both %r and %r"
                        % (data_id, writer[data_id], step_id)
                    )
                writer[data_id] = step_id
            else:
                reads.append((step_id, data_id))
        for step_id, data_id in reads:
            source = writer.get(data_id)
            if source is None:
                raise WarehouseError(
                    "step %r read %r which nothing produced"
                    % (step_id, data_id)
                )
            run.add_edge(source, step_id, [data_id])
        for data_id in sorted(record.final_outputs):
            source = writer.get(data_id)
            if source is None:
                raise WarehouseError(
                    "final output %r never produced" % data_id
                )
            run.add_edge(source, OUTPUT, [data_id])
        return run

    # ------------------------------------------------------------------
    # Recursive closure (BFS)
    # ------------------------------------------------------------------

    def admin_deep_provenance(self, run_id: str, data_id: str) -> ProvenanceResult:
        record = self._record(run_id)
        if data_id not in record.producer:
            raise self._missing("data", data_id)
        result = ProvenanceResult(target=data_id, view_name="UAdmin")
        seen_data: Set[str] = set()
        seen_steps: Set[str] = set()
        frontier: Deque[str] = deque([data_id])
        while frontier:
            current = frontier.popleft()
            if current in seen_data:
                continue
            seen_data.add(current)
            producer = record.producer[current]
            if producer == INPUT:
                result.user_inputs.add(current)
                continue
            if producer in seen_steps:
                continue
            seen_steps.add(producer)
            module = record.steps[producer]
            for data_in in sorted(record.inputs[producer]):
                result.rows.append(
                    ProvenanceRow(step_id=producer, module=module, data_in=data_in)
                )
                frontier.append(data_in)
        return result
