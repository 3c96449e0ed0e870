"""Abstract provenance warehouse.

Both backends (in-memory and SQLite) implement this interface; everything
above the warehouse — the reasoner, the ZOOM session, the benchmarks — is
backend-agnostic.  The interface has three layers:

* **storage**: specifications, user views and runs go in and come back out
  as model objects;
* **row-level primitives**: the relations the paper's warehouse holds
  (steps, the ``io`` read/write relation, user inputs, final outputs);
* **recursive closure**: :meth:`admin_deep_provenance` — deep provenance
  at the finest (UAdmin) granularity, each backend using its natural
  recursion mechanism.

Run reconstruction (:meth:`get_run`) is implemented here once, from the
row-level primitives, mirroring how a run graph is rebuilt from a workflow
log: the writer of a data object is its producer; a read of that object
creates a dataflow edge.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Container,
    Dict,
    FrozenSet,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..core.errors import UnknownEntityError, WarehouseError
from ..core.spec import INPUT, OUTPUT, WorkflowSpec
from ..core.view import UserView
from ..provenance.result import ProvenanceResult
from ..run.log import EventLog, run_from_log
from ..run.run import WorkflowRun
from .schema import DIR_OUT

if TYPE_CHECKING:  # pragma: no cover — annotation-only, avoids an import cycle
    from ..provenance.labels import LineageLabels
    from .pipeline import PreparedRun
    from .recovery import JournalEntry, QuarantineRecord


@dataclass(frozen=True)
class StreamState:
    """The durable open-run marker of a streaming ingestion.

    One record per run currently being appended to
    (:mod:`repro.warehouse.streaming`).  ``epoch`` counts committed
    appends; ``checksum`` is the cumulative
    :func:`~repro.warehouse.recovery.run_checksum` as of that epoch — the
    consistent prefix a torn append is truncated back to.  The record's
    *presence* is the open marker: finalize deletes it.
    """

    run_id: str
    spec_id: str
    epoch: int
    checksum: str
    opened_at: Optional[float] = None


class ProvenanceWarehouse(ABC):
    """Store for specifications, views and run provenance."""

    # ------------------------------------------------------------------
    # Specifications
    # ------------------------------------------------------------------

    @abstractmethod
    def store_spec(self, spec: WorkflowSpec, spec_id: Optional[str] = None) -> str:
        """Store a specification; returns its id (default: the spec name)."""

    @abstractmethod
    def get_spec(self, spec_id: str) -> WorkflowSpec:
        """Rebuild a stored specification."""

    @abstractmethod
    def list_specs(self) -> List[str]:
        """Ids of all stored specifications."""

    # ------------------------------------------------------------------
    # User views
    # ------------------------------------------------------------------

    @abstractmethod
    def store_view(
        self, view: UserView, spec_id: str, view_id: Optional[str] = None
    ) -> str:
        """Store a user-view definition against a stored specification."""

    @abstractmethod
    def get_view(self, view_id: str) -> UserView:
        """Rebuild a stored user view (including its specification)."""

    @abstractmethod
    def list_views(self, spec_id: Optional[str] = None) -> List[str]:
        """Ids of stored views, optionally restricted to one specification."""

    # ------------------------------------------------------------------
    # Runs
    # ------------------------------------------------------------------

    @abstractmethod
    def store_run(
        self, run: WorkflowRun, spec_id: str, run_id: Optional[str] = None
    ) -> str:
        """Store a run's provenance rows; returns the run id."""

    def store_log(
        self, log: EventLog, spec_id: str, run_id: Optional[str] = None
    ) -> str:
        """Store a run directly from its event log.

        This is the ingestion path the paper describes: the warehouse is
        fed log files produced by a workflow system, from which the run
        graph is reconstructed.  Per Section II, a user input's provenance
        *is* its recorded metadata, so the ``who`` attribute of the log's
        user-input events is persisted alongside the relational rows.
        """
        spec = self.get_spec(spec_id)
        run = run_from_log(log, spec)
        stored = self.store_run(run, spec_id, run_id=run_id or log.run_id)
        who = {
            event.data_id: event.who
            for event in log.of_kind("user_input")
            if event.who != "user"
        }
        if who:
            self._set_user_input_who(stored, who)
        return stored

    def store_many(self, prepared: Sequence["PreparedRun"]) -> List[str]:
        """Bulk-store pre-shaped runs in one transaction (batch ingestion).

        ``prepared`` rows come from the batch pipeline
        (:mod:`repro.warehouse.pipeline`), which has already validated the
        run graphs and matched them against their specs; backends only
        enforce id freshness and spec existence, then commit every run of
        the batch atomically — on any error nothing of the batch is
        stored.

        Both shipped backends implement it; third-party backends inherit
        this default, which refuses rather than silently degrading.
        """
        raise NotImplementedError(
            "%s does not implement bulk ingestion; use store_run"
            % type(self).__name__
        )

    # ------------------------------------------------------------------
    # Ingest journal, quarantine and integrity (crash-safe ingestion)
    # ------------------------------------------------------------------

    def journal_begin(self, entries: Sequence["JournalEntry"]) -> None:
        """Durably record runs about to be stored, in state ``pending``.

        Written *before* the batch transaction commits, so a crash leaves
        a pending row for every run whose fate is unknown —
        :func:`~repro.warehouse.recovery.recover` settles them by
        checksum.  Re-journalling an id overwrites its row.  The default
        is a no-op: a backend without a journal still ingests, it just
        cannot resume.
        """

    def journal_commit(self, run_ids: Sequence[str]) -> None:
        """Flip journal rows to ``committed`` after their batch landed."""

    def journal_discard(self, run_ids: Sequence[str]) -> None:
        """Drop journal rows (a gated-out or quarantined run)."""

    def journal_entries(
        self, state: Optional[str] = None
    ) -> List["JournalEntry"]:
        """Journal rows, optionally filtered by state (default: empty)."""
        return []

    def quarantine_add(self, record: "QuarantineRecord") -> None:
        """Persist a failed run's rows and reason for later inspection.

        Backends without quarantine storage refuse, so
        ``on_error="quarantine"`` never silently drops runs.
        """
        raise NotImplementedError(
            "%s does not implement quarantine storage" % type(self).__name__
        )

    def quarantine_list(self) -> List[str]:
        """Run ids currently quarantined (default: none)."""
        return []

    def quarantine_get(self, run_id: str) -> "QuarantineRecord":
        """The quarantine record of one run."""
        raise self._missing("quarantined run", run_id)

    def quarantine_delete(self, run_id: str) -> None:
        """Drop a quarantine record (after a successful retry)."""
        raise self._missing("quarantined run", run_id)

    def integrity_report(self, repair: bool = False) -> Dict[str, object]:
        """Probe the warehouse's physical health.

        Returns ``{"ok": bool, "missing_indexes": [...], "repaired":
        [...]}``.  Backends with on-disk structures override this with a
        real probe (``PRAGMA quick_check`` + expected-index check on
        SQLite); the default reports healthy — an in-memory dict cannot
        lose an index.
        """
        return {"ok": True, "missing_indexes": [], "repaired": []}

    # ------------------------------------------------------------------
    # Streaming appends (open runs; repro.warehouse.streaming)
    # ------------------------------------------------------------------

    def stream_begin(
        self,
        run_id: str,
        spec_id: str,
        *,
        checksum: str,
        opened_at: Optional[float] = None,
    ) -> None:
        """Open a run for streaming appends.

        Atomically creates the (empty) run and its open-run state record
        (epoch 0, ``checksum`` of the empty prefix).  Backends without
        streaming support refuse, so ``open_run`` never silently degrades
        to a non-resumable append.
        """
        raise NotImplementedError(
            "%s does not implement streaming ingestion" % type(self).__name__
        )

    def stream_state(self, run_id: str) -> Optional["StreamState"]:
        """The open-run record of ``run_id``, or ``None`` when the run is
        not currently open for streaming (default: never open)."""
        return None

    def stream_states(self) -> Dict[str, "StreamState"]:
        """Every open-run record, keyed by run id (default: none)."""
        return {}

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
        """Apply one epoch's delta rows **atomically**.

        The delta rows, the state advance (``epoch``/``checksum``) and
        the removal of the run's reachability labels (they describe the
        previous prefix; the next labeled query rebuilds them) must land
        in one transaction — a crash anywhere inside leaves the
        previous epoch intact, never a half-applied one.  Instrumented
        with the ``stream.append`` fault site inside the transaction;
        implementations wrap themselves in
        :func:`~repro.obs.retry.with_retries` so injected lock errors on
        the open-run row are absorbed.  ``user_inputs`` rows carry their
        ``who`` attribution.
        """
        raise NotImplementedError(
            "%s does not implement streaming ingestion" % type(self).__name__
        )

    def stream_close(self, run_id: str) -> None:
        """Delete the open-run record: the run is finalized.

        The stored rows and journal entry are left exactly as a cold
        batch load of the same events would leave them, so the warehouse
        fingerprint converges byte-identically.
        """
        raise NotImplementedError(
            "%s does not implement streaming ingestion" % type(self).__name__
        )

    @abstractmethod
    def list_runs(self, spec_id: Optional[str] = None) -> List[str]:
        """Ids of stored runs, optionally restricted to one specification."""

    @abstractmethod
    def run_spec_id(self, run_id: str) -> str:
        """The specification id a run executes."""

    # ------------------------------------------------------------------
    # Row-level primitives
    # ------------------------------------------------------------------

    @abstractmethod
    def steps_of_run(self, run_id: str) -> List[Tuple[str, str]]:
        """``(step_id, module)`` rows of a run, ordered by step id."""

    @abstractmethod
    def io_rows(self, run_id: str) -> List[Tuple[str, str, str]]:
        """``(step_id, data_id, direction)`` rows of a run."""

    @abstractmethod
    def user_inputs(self, run_id: str) -> FrozenSet[str]:
        """Data objects fed into the run by users."""

    @abstractmethod
    def final_outputs(self, run_id: str) -> FrozenSet[str]:
        """Data objects designated as the run's final results."""

    @abstractmethod
    def producer_of(self, run_id: str, data_id: str) -> str:
        """The step that wrote ``data_id``, or ``input`` for user inputs."""

    @abstractmethod
    def step_inputs(self, run_id: str, step_id: str) -> FrozenSet[str]:
        """Data objects a step read."""

    @abstractmethod
    def step_outputs(self, run_id: str, step_id: str) -> FrozenSet[str]:
        """Data objects a step wrote."""

    @abstractmethod
    def module_of_step(self, run_id: str, step_id: str) -> str:
        """The module a step is an execution of."""

    # ------------------------------------------------------------------
    # User-input metadata and annotations
    # ------------------------------------------------------------------

    @abstractmethod
    def user_input_who(self, run_id: str, data_id: str) -> str:
        """Who supplied a user input (``"user"`` when unrecorded).

        Raises :class:`UnknownEntityError` for data that is not a user
        input of the run.
        """

    @abstractmethod
    def _set_user_input_who(self, run_id: str, who: Dict[str, str]) -> None:
        """Record the supplier of user inputs (internal, used by
        :meth:`store_log`)."""

    @abstractmethod
    def annotate(self, run_id: str, subject: str, key: str, value: str) -> None:
        """Attach (or overwrite) a free-form annotation.

        ``subject`` is a step id or a data id of the run; annotations are
        plain key/value strings.
        """

    @abstractmethod
    def annotations_of(self, run_id: str, subject: str) -> Dict[str, str]:
        """All annotations on one step or data object."""

    @abstractmethod
    def find_annotated(
        self, run_id: str, key: str, value: Optional[str] = None
    ) -> List[str]:
        """Subjects carrying an annotation key (optionally a value too)."""

    # ------------------------------------------------------------------
    # Recursive closure
    # ------------------------------------------------------------------

    @abstractmethod
    def admin_deep_provenance(self, run_id: str, data_id: str) -> ProvenanceResult:
        """Deep provenance of ``data_id`` at step (UAdmin) granularity.

        One row per (step, input data object) pair in the transitive
        lineage; user inputs encountered along the way are reported in the
        result's ``user_inputs``.
        """

    # ------------------------------------------------------------------
    # Compact reachability labels
    # ------------------------------------------------------------------

    def can_write(self) -> bool:
        """Whether the calling thread may write to this warehouse.

        True everywhere by default.  A backend that hands foreign threads
        read-only connections (SQLite) answers False on those threads, so
        a reader can take the read-only path instead of failing a write.
        """
        return True

    def build_label_index(self, run_id: str, rebuild: bool = False) -> int:
        """Materialise (and persist) the run's reachability labels.

        One topological pass
        (:func:`~repro.provenance.labels.compute_lineage_labels`), then one
        bulk store; afterwards :meth:`label_lookup` answers deep provenance
        from O(V) stored rows, with no recursion.
        Idempotent: an already-labelled run is left untouched unless
        ``rebuild`` is true.  Returns the number of label rows (one per
        step).  Build time accumulates under the ``labels.build`` timer.
        """
        from ..obs.metrics import get_registry  # late: keep import graph acyclic
        from ..provenance.labels import compute_lineage_labels

        existing = self.label_row_count(run_id)
        if existing is not None and not rebuild:
            return existing
        with get_registry().time("labels.build"):
            labels = compute_lineage_labels(self, run_id)
            if existing is not None:
                self.drop_label_index(run_id)
            self._store_lineage_labels(labels)
        return labels.num_rows()

    @abstractmethod
    def _store_lineage_labels(self, labels: "LineageLabels") -> None:
        """Persist freshly computed labels (internal; bulk, transactional)."""

    @abstractmethod
    def has_label_index(self, run_id: str) -> bool:
        """Whether the run's reachability labels are materialised."""

    @abstractmethod
    def label_row_count(self, run_id: str) -> Optional[int]:
        """Label rows stored for a run, or ``None`` when not labelled."""

    @abstractmethod
    def label_index_version(self, run_id: str) -> Optional[int]:
        """The :data:`~repro.provenance.labels.LABELS_VERSION` the stored
        labels were computed under, or ``None`` when not labelled (lint
        rule ``WH043`` compares it with the code's)."""

    @abstractmethod
    def drop_label_index(self, run_id: Optional[str] = None) -> List[str]:
        """Discard the labels of one run (or of every run); returns the
        run ids whose labels were dropped."""

    @abstractmethod
    def label_lookup(self, run_id: str, data_id: str) -> ProvenanceResult:
        """Deep provenance from the stored labels: an upward traversal
        over tree-parent + remainder edges, touching only the ancestors.

        Row-identical to :meth:`admin_deep_provenance`.  Raises
        :class:`WarehouseError` when the run carries no label index.
        """

    @abstractmethod
    def label_rows_raw(self, run_id: str) -> Set[Tuple[str, int, int, str, str]]:
        """The stored ``(step_id, pre, post, parent, remainder)`` label
        rows, as-is.

        No validation — :mod:`repro.lint` compares these against a fresh
        labelling to detect a stale label index (rule ``WH043``).
        """

    def label_index_status(self) -> Dict[str, Optional[int]]:
        """Per-run label state: label row count, or ``None`` if unbuilt."""
        return {
            run_id: self.label_row_count(run_id)
            for run_id in self.list_runs()
        }

    @abstractmethod
    def delete_run(self, run_id: str) -> None:
        """Remove a run and every dependent row (io, annotations, labels).

        Re-ingestion after a delete gets a clean slate; the label index of
        the deleted run is dropped with it.
        """

    # ------------------------------------------------------------------
    # Raw-row access (auditing)
    # ------------------------------------------------------------------

    def spec_rows(self, spec_id: str) -> Dict[str, object]:
        """The raw ``{"name", "modules", "edges"}`` payload of a spec.

        Unlike :meth:`get_spec` this must not validate: it exposes the
        stored rows as-is so :mod:`repro.lint` can audit a corrupted
        warehouse instead of crashing into it.  The default implementation
        round-trips through :meth:`get_spec` (backends holding model
        objects cannot be corrupt); row stores override it with direct
        table reads.
        """
        return self.get_spec(spec_id).to_dict()

    def view_rows(self, view_id: str) -> Tuple[str, str, Dict[str, List[str]]]:
        """Raw ``(spec_id, name, composite -> members)`` rows of a view.

        Same contract as :meth:`spec_rows`: no validation, for auditing.
        """
        view = self.get_view(view_id)
        for spec_id in self.list_specs():
            if view_id in self.list_views(spec_id):
                return (
                    spec_id,
                    view.name,
                    {c: sorted(view.members(c)) for c in sorted(view.composites)},
                )
        raise self._missing("view", view_id)

    # ------------------------------------------------------------------
    # Run reconstruction (shared implementation)
    # ------------------------------------------------------------------

    def get_run(self, run_id: str) -> WorkflowRun:
        """Rebuild the run graph from the warehouse's relational rows."""
        spec = self.get_spec(self.run_spec_id(run_id))
        run = WorkflowRun(spec, run_id=run_id)
        for step_id, module in self.steps_of_run(run_id):
            run.add_step(step_id, module)
        writer: Dict[str, str] = {d: INPUT for d in self.user_inputs(run_id)}
        reads: List[Tuple[str, str]] = []
        for step_id, data_id, direction in self.io_rows(run_id):
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
                    "step %r read %r which nothing produced" % (step_id, data_id)
                )
            run.add_edge(source, step_id, [data_id])
        for data_id in sorted(self.final_outputs(run_id)):
            source = writer.get(data_id)
            if source is None:
                raise WarehouseError("final output %r never produced" % data_id)
            run.add_edge(source, OUTPUT, [data_id])
        return run

    # ------------------------------------------------------------------
    # Shared helpers for subclasses
    # ------------------------------------------------------------------

    @staticmethod
    def _fresh_id(
        candidate: Optional[str], default: str, existing: Container[str]
    ) -> str:
        """Resolve and uniqueness-check an identifier.

        ``existing`` is probed with ``in`` directly — pass the live id
        container (dict/set), or a precomputed set during batch loads.
        Copying it into a fresh set per insert made every store O(n) and
        large ``load_dataset`` calls quadratic.
        """
        identifier = candidate or default
        if identifier in existing:
            raise WarehouseError("identifier %r already stored" % identifier)
        return identifier

    @staticmethod
    def _missing(kind: str, identifier: str) -> UnknownEntityError:
        return UnknownEntityError("unknown %s %r" % (kind, identifier))
