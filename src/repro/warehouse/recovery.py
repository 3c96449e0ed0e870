"""Crash recovery for batched ingestion: journal, checksums, quarantine.

The bulk pipeline trades durability for throughput (``synchronous=OFF``,
multi-run transactions) — a crash mid-load can leave the
warehouse partially loaded with no record of how far it got.  This module
is the write-ahead manifest that makes those loads **crash-safe and
resumable**:

* Before a batch commits, the pipeline journals one ``pending`` row per
  run — warehouse id, spec id and a :func:`run_checksum` over the exact
  relational rows about to be stored.  After the commit the rows are
  marked ``committed``.  The journal lives next to the data it describes
  (a ``_ingest_journal`` table in SQLite, a dict in memory), so it crashes
  and recovers with it.
* :func:`recover` replays the journal on the crashed warehouse: a pending
  run whose stored rows match its checksum is rolled **forward** (marked
  committed); a mismatching one is rolled **back** (deleted, left pending);
  a pending entry with no stored run is a **torn** ingest, reported and
  left for ``load_dataset(resume=True)`` to re-ingest.  The warehouse's
  own integrity probe (``PRAGMA quick_check`` + expected-index repair)
  runs first, so a missing secondary index is healed in the same pass.
* Runs that fail *individually* — lint-gate rejections, validation
  errors, mid-batch storage failures — can be diverted into a
  **quarantine** (``ingest_dataset(on_error="quarantine")``) instead of
  aborting the dataset: a :class:`QuarantineRecord` keeps the shaped rows,
  the original exception and the offending event index, inspectable and
  re-ingestable via ``zoom quarantine list|show|retry``.

The chaos suite (``tests/test_recovery.py``) drives every crash site of
:mod:`repro.faults` through this module and asserts byte-identical
convergence with an uninterrupted load.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..core.errors import WarehouseError, ZoomError
from ..obs.metrics import get_registry
from .base import ProvenanceWarehouse

if TYPE_CHECKING:  # pragma: no cover — annotation-only, avoids import cycles
    from .pipeline import PreparedRun

#: Journal state: rows written, batch commit not yet confirmed.
JOURNAL_PENDING = "pending"

#: Journal state: the run's batch transaction is durably committed.
JOURNAL_COMMITTED = "committed"


@dataclass(frozen=True)
class JournalEntry:
    """One ingest-journal row: a run the pipeline intends (or managed) to
    store, with the checksum its stored rows must hash to."""

    run_id: str
    spec_id: str
    checksum: str
    batch: int
    state: str = JOURNAL_PENDING


@dataclass
class QuarantineRecord:
    """A failed run, preserved with enough context to inspect and retry.

    ``reason`` is the original exception (type and message);
    ``event_index`` names the offending log event when the error carries
    one.  The shaped relational rows ride along so ``retry`` can re-gate
    and re-store without the original workload in hand.
    """

    run_id: str
    spec_id: str
    source_run_id: str
    reason: str
    event_index: Optional[int] = None
    step_rows: List[Tuple[str, str]] = field(default_factory=list)
    io_rows: List[Tuple[str, str, str]] = field(default_factory=list)
    user_inputs: List[str] = field(default_factory=list)
    final_outputs: List[str] = field(default_factory=list)

    def to_payload(self) -> str:
        """The row payload persisted by the SQLite backend (JSON)."""
        return json.dumps({
            "source_run_id": self.source_run_id,
            "step_rows": [list(r) for r in self.step_rows],
            "io_rows": [list(r) for r in self.io_rows],
            "user_inputs": list(self.user_inputs),
            "final_outputs": list(self.final_outputs),
        }, sort_keys=True)

    @classmethod
    def from_payload(
        cls,
        run_id: str,
        spec_id: str,
        reason: str,
        event_index: Optional[int],
        payload: str,
    ) -> "QuarantineRecord":
        # A ``checksum`` key, written by older releases, is ignored: the
        # retry recomputes it under the current scheme.
        data = json.loads(payload)
        return cls(
            run_id=run_id,
            spec_id=spec_id,
            source_run_id=data.get("source_run_id", run_id),
            reason=reason,
            event_index=event_index,
            step_rows=[tuple(r) for r in data.get("step_rows", [])],
            io_rows=[tuple(r) for r in data.get("io_rows", [])],
            user_inputs=list(data.get("user_inputs", [])),
            final_outputs=list(data.get("final_outputs", [])),
        )

    def to_prepared(self) -> "PreparedRun":
        """Rebuild the bulk-storable form (for ``quarantine retry``).

        The checksum is always recomputed from the rows: one carried over
        from the quarantined payload may predate the current scheme, and
        journalling it would make recovery roll the retried run back.
        """
        from .pipeline import PreparedRun

        return PreparedRun(
            run_id=self.run_id,
            spec_id=self.spec_id,
            source_run_id=self.source_run_id,
            step_rows=list(self.step_rows),
            io_rows=list(self.io_rows),
            user_inputs=list(self.user_inputs),
            final_outputs=list(self.final_outputs),
            checksum=run_checksum(
                self.spec_id, self.step_rows, self.io_rows,
                self.user_inputs, self.final_outputs,
            ),
        )


@dataclass
class RecoveryReport:
    """What :func:`recover` found and fixed.

    The ``stream_*`` lists cover runs that were *open for streaming*
    (:meth:`~repro.warehouse.base.ProvenanceWarehouse.stream_states`)
    when the crash hit: an epoch rolled forward by checksum, or an append
    truncated back to the last committed epoch.
    """

    integrity_ok: bool = True
    repaired_indexes: List[str] = field(default_factory=list)
    marked_committed: List[str] = field(default_factory=list)
    rolled_back: List[str] = field(default_factory=list)
    torn_journal: List[str] = field(default_factory=list)
    stream_rolled_forward: List[str] = field(default_factory=list)
    stream_truncated: List[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        """True when nothing needed fixing and nothing is left torn."""
        return (
            self.integrity_ok
            and not self.repaired_indexes
            and not self.marked_committed
            and not self.rolled_back
            and not self.torn_journal
            and not self.stream_rolled_forward
            and not self.stream_truncated
        )

    def summary(self) -> str:
        lines = [
            "integrity: %s" % ("ok" if self.integrity_ok else "FAILED"),
        ]
        if self.repaired_indexes:
            lines.append(
                "repaired indexes: %s" % ", ".join(self.repaired_indexes)
            )
        if self.marked_committed:
            lines.append(
                "rolled forward (marked committed): %s"
                % ", ".join(self.marked_committed)
            )
        if self.rolled_back:
            lines.append(
                "rolled back (left pending): %s" % ", ".join(self.rolled_back)
            )
        if self.torn_journal:
            lines.append(
                "torn journal (re-load with --resume): %s"
                % ", ".join(self.torn_journal)
            )
        if self.stream_rolled_forward:
            lines.append(
                "stream epochs rolled forward: %s"
                % ", ".join(self.stream_rolled_forward)
            )
        if self.stream_truncated:
            lines.append(
                "stream appends truncated (resume re-sends): %s"
                % ", ".join(self.stream_truncated)
            )
        if self.clean:
            lines.append("journal: clean")
        return "\n".join(lines)


#: Prefix naming the checksum scheme in every stored checksum text.  A
#: journal or open-stream row written under another scheme (an untagged
#: 64-hex SHA-256 of the sorted JSON rows, before this prefix existed) is
#: recognised as such instead of reading as a row mismatch.
CHECKSUM_SCHEME = "m1:"

_MODULUS = 1 << 256

# One tag per relation, NUL-terminated so no tag is a prefix of another:
# the same id as a user input and as a final output hashes differently.
# Each row copies its relation's tagged hasher, which is cheaper than a
# fresh constructor; the sums run over every row of a batch-loaded run.
_STEP_TAG = hashlib.sha256(b"step\0")
_IO_TAG = hashlib.sha256(b"io\0")
_INPUT_TAG = hashlib.sha256(b"in\0")
_FINAL_TAG = hashlib.sha256(b"out\0")


def _tagged_sum(tag: Any, texts: Iterable[str]) -> int:
    """Sum of SHA-256(tag + text) over the texts, as big-endian ints."""
    copy, from_bytes = tag.copy, int.from_bytes
    total = 0
    for text in texts:
        row = copy()
        row.update(text.encode("utf-8"))
        total += from_bytes(row.digest(), "big")
    return total


@dataclass(frozen=True)
class RunDigest:
    """Order-independent additive multiset hash of a run's rows.

    Every row is hashed with SHA-256 under its relation's tag and the
    hashes are summed mod 2^256, so the digest of a union of disjoint row
    sets is the sum of their digests: a streamed epoch extends the run's
    digest by hashing only its own delta, C_N = C_{N-1} + H(delta_N).
    Ids are assumed free of NUL characters, which join a row's columns.
    """

    spec_id: str
    total: int = 0

    def add(
        self,
        step_rows: Iterable[Tuple[str, str]] = (),
        io_rows: Iterable[Tuple[str, str, str]] = (),
        user_inputs: Iterable[str] = (),
        final_outputs: Iterable[str] = (),
    ) -> "RunDigest":
        """The digest of this run's rows plus the given (new) rows."""
        join = "\0".join
        total = (
            self.total
            + _tagged_sum(_STEP_TAG, map(join, step_rows))
            + _tagged_sum(_IO_TAG, map(join, io_rows))
            + _tagged_sum(_INPUT_TAG, user_inputs)
            + _tagged_sum(_FINAL_TAG, final_outputs)
        )
        return RunDigest(self.spec_id, total % _MODULUS)

    @property
    def checksum(self) -> str:
        """The stored checksum text: scheme prefix + SHA-256 of
        ``(spec_id, sum)``."""
        blob = self.spec_id.encode("utf-8") + b"\0" + self.total.to_bytes(32, "big")
        return CHECKSUM_SCHEME + hashlib.sha256(blob).hexdigest()


def run_checksum(
    spec_id: str,
    step_rows: Iterable[Tuple[str, str]],
    io_rows: Iterable[Tuple[str, str, str]],
    user_inputs: Iterable[str],
    final_outputs: Iterable[str],
) -> str:
    """Content hash of a run's relational rows, order-independent.

    The :attr:`RunDigest.checksum` of the rows, so the same hash comes out
    of a :class:`~repro.warehouse.pipeline.PreparedRun` (rows in shaping
    order), out of the stored warehouse rows (rows in backend iteration
    order) and out of a stream's epoch-by-epoch digest.  The
    reachability labels are deliberately excluded: they are derived data,
    rebuildable from these rows.
    """
    return RunDigest(spec_id).add(
        step_rows, io_rows, user_inputs, final_outputs
    ).checksum


def checksum_stored_run(warehouse: ProvenanceWarehouse, run_id: str) -> str:
    """:func:`run_checksum` recomputed from what the warehouse holds."""
    return run_checksum(
        warehouse.run_spec_id(run_id),
        warehouse.steps_of_run(run_id),
        warehouse.io_rows(run_id),
        warehouse.user_inputs(run_id),
        warehouse.final_outputs(run_id),
    )


def event_index_of(exc: BaseException) -> Optional[int]:
    """The offending log-event index an ingestion error names, if any.

    ``run_from_log`` errors are prefixed ``"event %d (kind): ..."``; an
    explicit ``event_index`` attribute (future-proofing) wins over the
    message parse.
    """
    explicit = getattr(exc, "event_index", None)
    if isinstance(explicit, int):
        return explicit
    match = re.search(r"\bevent (\d+)\b", str(exc))
    return int(match.group(1)) if match else None


def _require_current_scheme(warehouse: ProvenanceWarehouse) -> None:
    """Refuse to settle checksums written under another scheme.

    Recovery compares the journal and open-stream checksums with a
    recomputation over the stored rows; under a different scheme that
    comparison always fails and would delete a healthy run.  So a stored
    run with a ``pending`` entry, or any open-stream row, whose checksum
    lacks :data:`CHECKSUM_SCHEME` stops recovery before it changes
    anything.  Committed entries are never compared and stay as they are;
    a pending entry without a stored run is only a resume work item.
    """
    present = set(warehouse.list_runs())
    stale = {
        entry.run_id
        for entry in warehouse.journal_entries(state=JOURNAL_PENDING)
        if entry.run_id in present
        and not entry.checksum.startswith(CHECKSUM_SCHEME)
    }
    stale.update(
        run_id for run_id, state in warehouse.stream_states().items()
        if not state.checksum.startswith(CHECKSUM_SCHEME)
    )
    if stale:
        raise WarehouseError(
            "cannot recover run(s) %s: their pending journal entry or"
            " open-stream row carries a checksum from an older scheme"
            " (current checksums start with %r), so their stored rows"
            " cannot be verified.  Settle them with the release that wrote"
            " them, or delete those runs and load them again."
            % (", ".join(repr(r) for r in sorted(stale)), CHECKSUM_SCHEME)
        )


def _recover_streams(
    warehouse: ProvenanceWarehouse, report: RecoveryReport
) -> frozenset:
    """Settle every open streaming run; returns their run ids.

    A streaming run holds exactly one journal entry, re-written
    ``pending`` at the start of each epoch and ``committed`` after the
    epoch's rows landed; the ``_stream_state`` row — updated *in the same
    transaction* as the rows — is the last-committed watermark.  Per run:

    * pending entry whose checksum matches the stored rows → the crash
      hit between the atomic apply and the journal mark; roll the epoch
      **forward** (mark committed).
    * pending entry, stored rows matching the *state* checksum instead →
      the epoch never (durably) applied; **truncate** by re-journalling
      the last committed epoch, leaving a resumed append to re-send it.
    * stored rows matching neither checksum → corrupt; the run (and its
      state row) is deleted outright.
    * no journal entry at all → the crash hit inside ``open_run`` before
      its first journal write; re-journal the committed open state.

    Labels need no pass: each epoch's transaction drops them with its
    rows, so stored labels always describe the committed prefix.
    """
    registry = get_registry()
    states = warehouse.stream_states()
    if not states:
        return frozenset()
    entries = {e.run_id: e for e in warehouse.journal_entries()}
    present = set(warehouse.list_runs())
    for run_id in sorted(states):
        state = states[run_id]
        if run_id not in present:  # pragma: no cover — state row is
            # written in the same transaction as the run definition, so
            # this needs external vandalism; settle it defensively.
            warehouse.stream_close(run_id)
            if run_id in entries:
                warehouse.journal_discard([run_id])
            report.rolled_back.append(run_id)
            continue
        entry = entries.get(run_id)
        stored = checksum_stored_run(warehouse, run_id)
        if entry is not None and entry.state == JOURNAL_COMMITTED:
            pass  # journal already settled
        elif entry is not None and stored == entry.checksum:
            warehouse.journal_commit([run_id])
            registry.counter("recovery.stream_rolled_forward").increment()
            report.stream_rolled_forward.append(run_id)
        elif stored == state.checksum:
            # Also covers entry=None: a kill between open_run's state
            # transaction and its journal write leaves epoch 0 committed
            # but unjournalled.
            warehouse.journal_begin([JournalEntry(
                run_id=run_id, spec_id=state.spec_id,
                checksum=state.checksum, batch=state.epoch,
            )])
            warehouse.journal_commit([run_id])
            registry.counter("recovery.stream_truncated").increment()
            report.stream_truncated.append(run_id)
        else:
            # Matches neither the in-flight epoch nor the last committed
            # one: the stored rows are garbage.  delete_run clears the
            # journal row and the stream state with it.
            warehouse.delete_run(run_id)
            registry.counter("recovery.rolled_back").increment()
            report.rolled_back.append(run_id)
    return frozenset(states)


def recover(warehouse: ProvenanceWarehouse) -> RecoveryReport:
    """Repair a warehouse after a crashed (or killed) ingestion.

    Safe to run any time — on a healthy warehouse it is a cheap no-op
    audit.  A warehouse whose unsettled checksums predate the current
    scheme raises :class:`~repro.core.errors.WarehouseError` naming the
    runs before anything is touched (:func:`_require_current_scheme`).
    Otherwise four passes:

    1. **Integrity**: the backend's :meth:`integrity_report` with
       ``repair=True`` — ``PRAGMA quick_check`` plus recreation of any
       missing expected index.
    2. **Streams**: every run open for streaming appends is settled
       epoch-wise — rolled forward, truncated to its last committed
       epoch, or (when its rows match no checksum) deleted.  See
       :func:`_recover_streams`.
    3. **Roll forward**: every ``pending`` journal entry whose run is
       stored with rows hashing to the journalled checksum is marked
       ``committed`` (the crash hit after the batch commit, before the
       journal mark).
    4. **Roll back**: a ``pending`` run stored with *mismatching* rows is
       half-applied garbage — it is deleted and its journal entry
       re-written as ``pending``, so a resumed load re-ingests it.

    Pending entries whose run is absent (torn journal, lint rule
    ``WH041``) are reported but left in place: they are precisely the
    work-list ``load_dataset(resume=True)`` needs.
    """
    _require_current_scheme(warehouse)
    registry = get_registry()
    integrity = warehouse.integrity_report(repair=True)
    report = RecoveryReport(
        integrity_ok=bool(integrity.get("ok", True)),
        repaired_indexes=[str(n) for n in integrity.get("repaired", [])],
    )
    streaming = _recover_streams(warehouse, report)
    present = set(warehouse.list_runs())
    for entry in warehouse.journal_entries(state=JOURNAL_PENDING):
        if entry.run_id in streaming:
            continue
        if entry.run_id not in present:
            report.torn_journal.append(entry.run_id)
            continue
        if checksum_stored_run(warehouse, entry.run_id) == entry.checksum:
            warehouse.journal_commit([entry.run_id])
            registry.counter("recovery.marked_committed").increment()
            report.marked_committed.append(entry.run_id)
        else:
            # delete_run clears the journal row as well; re-journal the
            # entry as pending so the resume path re-ingests this run.
            warehouse.delete_run(entry.run_id)
            warehouse.journal_begin([JournalEntry(
                run_id=entry.run_id, spec_id=entry.spec_id,
                checksum=entry.checksum, batch=entry.batch,
            )])
            registry.counter("recovery.rolled_back").increment()
            report.rolled_back.append(entry.run_id)
    return report


def retry_quarantined(
    warehouse: ProvenanceWarehouse,
    run_ids: Optional[Sequence[str]] = None,
    force: bool = False,
) -> Dict[str, str]:
    """Re-gate and re-store quarantined runs; returns run id -> outcome.

    Each run's preserved rows are re-linted against the stored spec and
    pushed through the same journal-then-store protocol the pipeline uses.
    A run that fails the gate again stays quarantined (outcome
    ``"rejected: ..."``) unless ``force=True`` skips the gate.  Outcomes:
    ``"stored"``, ``"rejected: <error>"`` or ``"failed: <error>"``.
    """
    from ..lint import Linter
    from ..lint.findings import LintGateError
    from ..lint.rules_run import RunFacts, lint_run_facts

    linter = Linter()
    targets = list(run_ids) if run_ids is not None else warehouse.quarantine_list()
    outcomes: Dict[str, str] = {}
    for run_id in targets:
        record = warehouse.quarantine_get(run_id)
        prepared = record.to_prepared()
        try:
            if not force:
                facts = RunFacts.from_rows(
                    record.source_run_id,
                    list(record.step_rows),
                    list(record.io_rows),
                    frozenset(record.user_inputs),
                    frozenset(record.final_outputs),
                )
                spec_rows = warehouse.spec_rows(record.spec_id)
                facts.attach_spec(
                    spec_rows["modules"], spec_rows["edges"]  # type: ignore[arg-type]
                )
                report = linter.report_findings(lint_run_facts(facts))
                linter.gate(report, "run %r" % record.source_run_id, True)
            warehouse.journal_begin([JournalEntry(
                run_id=prepared.run_id, spec_id=prepared.spec_id,
                checksum=prepared.checksum, batch=0,
            )])
            warehouse.store_many([prepared])
            warehouse.journal_commit([prepared.run_id])
            warehouse.quarantine_delete(run_id)
        except LintGateError as exc:
            outcomes[run_id] = "rejected: %s" % exc
        except ZoomError as exc:
            outcomes[run_id] = "failed: %s" % exc
        else:
            outcomes[run_id] = "stored"
    return outcomes


__all__ = [
    "CHECKSUM_SCHEME",
    "JOURNAL_COMMITTED",
    "JOURNAL_PENDING",
    "JournalEntry",
    "QuarantineRecord",
    "RecoveryReport",
    "RunDigest",
    "checksum_stored_run",
    "event_index_of",
    "recover",
    "retry_quarantined",
    "run_checksum",
]
