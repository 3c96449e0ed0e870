"""SQLite warehouse backend.

The paper stores provenance in Oracle 10g and computes deep provenance with
``CONNECT BY`` recursive queries plus stored procedures.  SQLite's
``WITH RECURSIVE`` common table expressions are the standard-SQL analogue,
available in the Python standard library — so this backend reproduces the
paper's warehouse architecture end to end: relational tables loaded from
workflow logs, covering indexes on the ``io`` relation, and a recursive SQL
closure for deep provenance.

Use ``path=":memory:"`` (the default) for a throwaway database or a file
path for a persistent warehouse.
"""

from __future__ import annotations

import os
import sqlite3
import threading
import uuid
from contextlib import contextmanager
from typing import (
    TYPE_CHECKING,
    Dict,
    FrozenSet,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..core.errors import WarehouseError
from ..core.spec import INPUT, WorkflowSpec
from ..core.view import UserView
from ..faults import FaultPlan
from ..obs.metrics import get_registry
from ..obs.retry import with_retries
from ..provenance.result import ProvenanceResult, ProvenanceRow
from ..run.run import WorkflowRun
from ..sanitize import guard, make_lock
from .base import ProvenanceWarehouse, StreamState
from .recovery import JOURNAL_COMMITTED, JOURNAL_PENDING, JournalEntry, QuarantineRecord
from .schema import (
    DIR_IN,
    DIR_OUT,
    SQLITE_DDL,
    SQLITE_DEEP_PROVENANCE,
    SQLITE_EXPECTED_INDEXES,
    SQLITE_LINEAGE_USER_INPUTS,
)

if TYPE_CHECKING:  # pragma: no cover — annotation-only, avoids an import cycle
    from ..provenance.labels import LineageLabels
    from .pipeline import PreparedRun


#: The per-epoch label watermark ``_stream_state`` carried until streamed
#: epochs began dropping a run's labels in their own transaction.
_RETIRED_STREAM_COLUMN = "delta_epoch"


def _directory_message(path: str) -> str:
    """Why a directory cannot open as a warehouse, and what to open instead."""
    message = "%s is a directory, not a SQLite warehouse file" % path
    if os.path.isfile(os.path.join(path, "shard_manifest.json")):
        message += (
            "; it holds a sharded federation, which this version no longer"
            " supports: open each shard-NNN.db inside it on its own as a"
            " plain warehouse"
        )
    return message


class SqliteWarehouse(ProvenanceWarehouse):
    """SQLite implementation of :class:`ProvenanceWarehouse`.

    Parameters
    ----------
    path:
        Database location; ``":memory:"`` (default) keeps everything in
        RAM, any other string is a filesystem path.  A directory raises
        :class:`WarehouseError`.
    timing:
        When true, every SQL statement executed on this connection is
        counted and timed in the default metrics registry under
        ``warehouse.sql`` (via :meth:`sqlite3.Connection.set_trace_callback`
        for the count and explicit timers on the closure queries).
    Notes
    -----
    File-backed databases run in WAL journal mode with a 5 s busy timeout,
    so concurrent readers never block a writer and a briefly locked
    database retries instead of failing — the configuration a multi-session
    service needs.  ``:memory:`` databases are opened through a
    shared-cache URI so every connection of this warehouse object sees the
    same database, and silently keep their native journal mode.  All
    durability/journal pragma decisions live in
    :meth:`_apply_session_pragmas` / :meth:`_bulk_writes`; nothing else
    touches them.  :meth:`store_many` drops ``synchronous`` to ``OFF``
    around each batch commit and **restores ``NORMAL`` afterwards**, so
    the warehouse never stays in the relaxed mode.

    **Thread-affinity contract.**  The thread that constructs the
    warehouse owns the single *write* connection; every mutating method
    (``store_*``, ``annotate``, ``delete_run``, journal/quarantine writes,
    index builds and drops) must run on that thread.  *Read* methods are
    safe from any thread: the first read from a foreign thread checks out
    a dedicated read-only connection (``PRAGMA query_only = ON``) from the
    per-thread pool, created by the same connection factory and counted
    under ``warehouse.pool.readers``.  A write attempted from a foreign
    thread fails fast with ``sqlite3.OperationalError`` (read-only
    connection) instead of the historical cross-thread
    ``sqlite3.ProgrammingError`` on reads.
    """

    def __init__(
        self,
        path: str = ":memory:",
        timing: bool = False,
        faults: Optional[FaultPlan] = None,
    ) -> None:
        if os.path.isdir(path):
            raise WarehouseError(_directory_message(path))
        self._path = path
        #: Shared-cache URI for in-memory databases, so reader connections
        #: attach to the same database instead of fresh empty ones; the
        #: uuid keeps distinct warehouse objects isolated from each other.
        self._uri: Optional[str] = (
            "file:zoom-mem-%s?mode=memory&cache=shared" % uuid.uuid4().hex
            if path == ":memory:" else None
        )
        #: Statement counting requested (applied to reader connections too).
        self._timing = timing
        #: Thread that owns the write connection (see class docstring).
        self._owner_thread = threading.get_ident()
        #: Per-thread read-only connections, created lazily on first read
        #: from a foreign thread.
        self._thread_readers = threading.local()  # thread-owned
        self._readers_lock = make_lock("warehouse.readers")
        #: Every reader ever handed out, so :meth:`close` can close them.
        self._all_readers: List[sqlite3.Connection] = guard(
            [], self._readers_lock, "warehouse._all_readers"
        )  # guarded-by: _readers_lock
        self._write_conn = self._connect()  # thread-owned
        #: Fault-injection schedule (tests only; ``None`` in production).
        self.faults = faults
        #: Indexes the startup probe found missing on an existing database
        #: (dropped by a crash or an out-of-band edit); the DDL pass below
        #: recreates them immediately.
        self.repaired_indexes: List[str] = []
        self._apply_session_pragmas()
        if timing:
            counter = get_registry().counter("warehouse.sql")
            self._write_conn.set_trace_callback(
                lambda _stmt: counter.increment()
            )
        self._startup_integrity()
        for statement in SQLITE_DDL:
            self._write_conn.execute(statement)
        self._write_conn.commit()
        self._upgrade_stream_state()

    # ------------------------------------------------------------------
    # Connection factory and per-thread read pool
    # ------------------------------------------------------------------

    def _connect(self) -> sqlite3.Connection:
        """Open one connection to this warehouse's database.

        ``check_same_thread=False`` because thread safety is enforced by
        this class's own discipline instead of sqlite3's blanket ban: the
        write connection is only ever *used* by the owning thread, readers
        are never shared between threads, and :meth:`close` may tear any
        of them down from whichever thread calls it.
        """
        if self._uri is not None:
            return sqlite3.connect(self._uri, uri=True, check_same_thread=False)
        return sqlite3.connect(self._path, check_same_thread=False)

    @property
    def _conn(self) -> sqlite3.Connection:  # owner-only
        """The calling thread's connection.

        The owning thread gets the read/write connection; any other thread
        gets its own read-only connection, checked out lazily.  Routing
        through a property fixes the historical thread-affinity bug (every
        cross-thread read died with ``ProgrammingError``) without touching
        the query methods themselves.
        """
        if threading.get_ident() == self._owner_thread:
            return self._write_conn
        conn = getattr(self._thread_readers, "conn", None)
        if conn is None:
            conn = self._checkout_reader()
            self._thread_readers.conn = conn
        return conn

    def _checkout_reader(self) -> sqlite3.Connection:
        """Create, configure and register the calling thread's reader."""
        conn = self._connect()
        conn.execute("PRAGMA busy_timeout = 5000")
        conn.execute("PRAGMA foreign_keys = ON")
        # Readers must never write: a service worker that strays onto a
        # mutating path fails fast instead of corrupting the single-writer
        # discipline WAL mode relies on.
        conn.execute("PRAGMA query_only = ON")
        if self._timing:
            counter = get_registry().counter("warehouse.sql")
            conn.set_trace_callback(lambda _stmt: counter.increment())
        registry = get_registry()
        with self._readers_lock:
            self._all_readers.append(conn)
            pool_size = len(self._all_readers)
        # Metrics are recorded outside the lock; the size was snapshotted
        # inside it so the gauge never under-reports a concurrent checkout.
        registry.counter("warehouse.pool.readers").increment()
        registry.gauge("warehouse.pool.size").set(pool_size)
        return conn

    def _hit(self, site: str) -> None:
        """Fire the fault plan at an instrumented site (no-op without one)."""
        if self.faults is not None:
            self.faults.hit(site)

    def _startup_integrity(self) -> None:
        """Probe an existing database before the DDL pass heals it.

        On a fresh database (no ``io`` table yet) there is nothing to
        probe.  Otherwise run the same check as :meth:`integrity_report`
        and record which expected indexes were missing — the ``IF NOT
        EXISTS`` DDL that follows recreates them, so the repair is counted
        here (``warehouse.integrity.repaired``) and surfaced on
        :attr:`repaired_indexes`.
        """
        tables = {
            name
            for (name,) in self._conn.execute(
                "SELECT name FROM sqlite_master WHERE type = 'table'"
            )
        }
        if "io" not in tables:
            return
        report = self.integrity_report(repair=False)
        missing = [str(name) for name in report["missing_indexes"]]  # type: ignore[union-attr]
        if missing:
            self.repaired_indexes = missing
            get_registry().counter(
                "warehouse.integrity.repaired"
            ).increment(len(missing))

    def _upgrade_stream_state(self) -> None:
        """Drop the retired label-watermark column from an older database.

        Its ``NOT NULL`` constraint would fail every later
        ``stream_begin``.  One transaction drops the labels of every open
        stream (they may trail the rows; queries rebuild them) and then
        the column (``DROP COLUMN`` needs SQLite 3.35 or later).
        """
        columns = {
            row[1]
            for row in self._conn.execute("PRAGMA table_info(_stream_state)")
        }
        if _RETIRED_STREAM_COLUMN not in columns:
            return
        with self._conn:
            for table in ("lineage_labels", "labels_meta"):
                self._conn.execute(
                    "DELETE FROM %s WHERE run_id IN"
                    " (SELECT run_id FROM _stream_state)" % table
                )
            self._conn.execute(
                "ALTER TABLE _stream_state DROP COLUMN %s"
                % _RETIRED_STREAM_COLUMN
            )

    def integrity_report(self, repair: bool = False) -> Dict[str, object]:
        """``PRAGMA quick_check`` plus the expected-index inventory.

        Counted under ``warehouse.integrity.checks`` /
        ``warehouse.integrity.failed`` / ``warehouse.integrity.repaired``.
        With ``repair=True`` any missing expected index is recreated on
        the spot (what ``zoom recover`` does).
        """
        registry = get_registry()
        registry.counter("warehouse.integrity.checks").increment()
        row = self._conn.execute("PRAGMA quick_check").fetchone()
        ok = row is not None and row[0] == "ok"
        if not ok:
            registry.counter("warehouse.integrity.failed").increment()
        names = {
            name
            for (name,) in self._conn.execute(
                "SELECT name FROM sqlite_master WHERE type = 'index'"
            )
        }
        missing = [
            name for name, _ddl in SQLITE_EXPECTED_INDEXES if name not in names
        ]
        repaired: List[str] = []
        if repair and missing:
            with self._conn:
                for name, ddl in SQLITE_EXPECTED_INDEXES:
                    if name in missing:
                        self._conn.execute(ddl)
                        repaired.append(name)
            registry.counter(
                "warehouse.integrity.repaired"
            ).increment(len(repaired))
        return {"ok": ok, "missing_indexes": missing, "repaired": repaired}

    def _apply_session_pragmas(self) -> None:
        """The connection profile: WAL + busy retry, durable commits.

        ``foreign_keys = ON``, ``journal_mode = WAL``, ``busy_timeout =
        5000`` and ``synchronous = NORMAL`` — with WAL, commits are
        consistent across crashes and fsync happens at checkpoint time.
        """
        self._conn.execute("PRAGMA foreign_keys = ON")
        self._conn.execute("PRAGMA journal_mode = WAL")
        self._conn.execute("PRAGMA busy_timeout = 5000")
        self._conn.execute("PRAGMA synchronous = NORMAL")

    @contextmanager
    def _bulk_writes(self) -> Iterator[None]:
        """Run one batch commit with ``synchronous = OFF``, then restore.

        ``synchronous`` is restored to ``NORMAL`` afterwards even on
        error — one fsync policy decision, documented here, instead of
        pragma statements scattered through the write paths.
        """
        self._conn.execute("PRAGMA synchronous = OFF")
        try:
            yield
        finally:
            self._conn.execute("PRAGMA synchronous = NORMAL")

    def can_write(self) -> bool:
        """Only the owner thread holds the write connection."""
        return threading.get_ident() == self._owner_thread

    def close(self) -> None:  # owner-only
        """Close the write connection and every checked-out reader."""
        with self._readers_lock:
            readers = list(self._all_readers)
            self._all_readers.clear()
        for conn in readers:
            try:
                conn.close()
            except sqlite3.Error:  # pragma: no cover — already closed
                pass
        self._write_conn.close()

    def __enter__(self) -> "SqliteWarehouse":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------

    @contextmanager
    def _snapshot(self) -> Iterator[None]:
        """Pin one WAL snapshot across a multi-statement read.

        A reader reconstructing a run issues several SELECTs; under a
        concurrent streaming append an epoch could commit between them and
        tear the reconstruction across two prefixes.  Wrapping the reads
        in an explicit deferred transaction pins the per-thread reader
        connection to the snapshot its first SELECT sees.  On the owner
        thread (where writes are serialized with reads by construction)
        and inside an already-open transaction this is a no-op.
        """
        conn = self._conn
        # Identity comparison only, no use of the connection — safe from
        # any thread.  # provlint: ignore=SRC050
        if conn is self._write_conn or conn.in_transaction:
            yield
            return
        conn.execute("BEGIN")
        try:
            yield
        finally:
            conn.execute("COMMIT")

    def get_run(self, run_id: str) -> WorkflowRun:
        with self._snapshot():
            return super().get_run(run_id)

    def _exists(self, table: str, key: str, value: str) -> bool:
        cursor = self._conn.execute(
            "SELECT 1 FROM %s WHERE %s = ? LIMIT 1" % (table, key), (value,)
        )
        return cursor.fetchone() is not None

    def _require(self, table: str, key: str, value: str, kind: str) -> None:
        if not self._exists(table, key, value):
            raise self._missing(kind, value)

    # ------------------------------------------------------------------
    # Specifications
    # ------------------------------------------------------------------

    def store_spec(self, spec: WorkflowSpec, spec_id: Optional[str] = None) -> str:
        identifier = spec_id or spec.name
        if self._exists("spec", "spec_id", identifier):
            raise WarehouseError("identifier %r already stored" % identifier)
        with self._conn:
            self._conn.execute(
                "INSERT INTO spec (spec_id, name) VALUES (?, ?)",
                (identifier, spec.name),
            )
            self._conn.executemany(
                "INSERT INTO module (spec_id, module) VALUES (?, ?)",
                [(identifier, m) for m in sorted(spec.modules)],
            )
            self._conn.executemany(
                "INSERT INTO spec_edge (spec_id, src, dst) VALUES (?, ?, ?)",
                [(identifier, src, dst) for src, dst in sorted(spec.edges())],
            )
        return identifier

    def get_spec(self, spec_id: str) -> WorkflowSpec:
        row = self._conn.execute(
            "SELECT name FROM spec WHERE spec_id = ?", (spec_id,)
        ).fetchone()
        if row is None:
            raise self._missing("spec", spec_id)
        modules = [
            m
            for (m,) in self._conn.execute(
                "SELECT module FROM module WHERE spec_id = ? ORDER BY module",
                (spec_id,),
            )
        ]
        edges = [
            (src, dst)
            for src, dst in self._conn.execute(
                "SELECT src, dst FROM spec_edge WHERE spec_id = ? ORDER BY src, dst",
                (spec_id,),
            )
        ]
        return WorkflowSpec(modules, edges, name=row[0])

    def list_specs(self) -> List[str]:
        return [
            spec_id
            for (spec_id,) in self._conn.execute(
                "SELECT spec_id FROM spec ORDER BY spec_id"
            )
        ]

    def spec_rows(self, spec_id: str) -> Dict[str, object]:
        """Raw module/spec_edge rows, unvalidated (lint audits at rest)."""
        row = self._conn.execute(
            "SELECT name FROM spec WHERE spec_id = ?", (spec_id,)
        ).fetchone()
        if row is None:
            raise self._missing("spec", spec_id)
        return {
            "name": row[0],
            "modules": [
                m
                for (m,) in self._conn.execute(
                    "SELECT module FROM module WHERE spec_id = ?"
                    " ORDER BY module",
                    (spec_id,),
                )
            ],
            "edges": [
                (src, dst)
                for src, dst in self._conn.execute(
                    "SELECT src, dst FROM spec_edge WHERE spec_id = ?"
                    " ORDER BY src, dst",
                    (spec_id,),
                )
            ],
        }

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
        identifier = view_id or view.name
        if self._exists("view_def", "view_id", identifier):
            raise WarehouseError("identifier %r already stored" % identifier)
        with self._conn:
            self._conn.execute(
                "INSERT INTO view_def (view_id, spec_id, name) VALUES (?, ?, ?)",
                (identifier, spec_id, view.name),
            )
            rows = [
                (identifier, composite, module)
                for composite in sorted(view.composites)
                for module in sorted(view.members(composite))
            ]
            self._conn.executemany(
                "INSERT INTO view_member (view_id, composite, module)"
                " VALUES (?, ?, ?)",
                rows,
            )
        return identifier

    def get_view(self, view_id: str) -> UserView:
        row = self._conn.execute(
            "SELECT spec_id, name FROM view_def WHERE view_id = ?", (view_id,)
        ).fetchone()
        if row is None:
            raise self._missing("view", view_id)
        spec = self.get_spec(row[0])
        composites: Dict[str, List[str]] = {}
        for composite, module in self._conn.execute(
            "SELECT composite, module FROM view_member WHERE view_id = ?"
            " ORDER BY composite, module",
            (view_id,),
        ):
            composites.setdefault(composite, []).append(module)
        return UserView(spec, composites, name=row[1])

    def view_rows(self, view_id: str) -> Tuple[str, str, Dict[str, List[str]]]:
        """Raw view_def/view_member rows, unvalidated (lint audits at rest)."""
        row = self._conn.execute(
            "SELECT spec_id, name FROM view_def WHERE view_id = ?", (view_id,)
        ).fetchone()
        if row is None:
            raise self._missing("view", view_id)
        composites: Dict[str, List[str]] = {}
        for composite, module in self._conn.execute(
            "SELECT composite, module FROM view_member WHERE view_id = ?"
            " ORDER BY composite, module",
            (view_id,),
        ):
            composites.setdefault(composite, []).append(module)
        return row[0], row[1], composites

    def list_views(self, spec_id: Optional[str] = None) -> List[str]:
        if spec_id is None:
            cursor = self._conn.execute(
                "SELECT view_id FROM view_def ORDER BY view_id"
            )
        else:
            cursor = self._conn.execute(
                "SELECT view_id FROM view_def WHERE spec_id = ? ORDER BY view_id",
                (spec_id,),
            )
        return [view_id for (view_id,) in cursor]

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
        identifier = run_id or run.run_id
        if self._exists("run_def", "run_id", identifier):
            raise WarehouseError("identifier %r already stored" % identifier)
        step_rows: List[Tuple[str, str, str]] = []
        io_rows: List[Tuple[str, str, str, str]] = []
        for step in run.steps():
            step_rows.append((identifier, step.step_id, step.module))
            for data_id in sorted(run.inputs_of(step.step_id)):
                io_rows.append((identifier, step.step_id, data_id, DIR_IN))
            for data_id in sorted(run.outputs_of(step.step_id)):
                io_rows.append((identifier, step.step_id, data_id, DIR_OUT))
        with self._conn:
            self._conn.execute(
                "INSERT INTO run_def (run_id, spec_id) VALUES (?, ?)",
                (identifier, spec_id),
            )
            self._conn.executemany(
                "INSERT INTO step (run_id, step_id, module) VALUES (?, ?, ?)",
                step_rows,
            )
            self._conn.executemany(
                "INSERT INTO io (run_id, step_id, data_id, direction)"
                " VALUES (?, ?, ?, ?)",
                io_rows,
            )
            self._conn.executemany(
                "INSERT INTO user_input (run_id, data_id) VALUES (?, ?)",
                [(identifier, d) for d in sorted(run.user_inputs())],
            )
            self._conn.executemany(
                "INSERT INTO final_output (run_id, data_id) VALUES (?, ?)",
                [(identifier, d) for d in sorted(run.final_outputs())],
            )
        return identifier

    @with_retries()
    def store_many(self, prepared: Sequence["PreparedRun"]) -> List[str]:
        """Commit a batch of prepared runs in one transaction.

        Five prepared ``executemany`` statements over the pre-shaped row
        tuples (run_def, step, io, user_input, final_output), then — for
        prepared runs carrying labels — their label rows, all inside a
        single transaction under :meth:`_bulk_writes`.  Id freshness is
        checked against one precomputed set (batch + stored), so a batch
        is O(batch) instead of O(batch * stored).

        Transient lock/busy contention (another loader holding the write
        lock) is retried with backoff by :func:`~repro.obs.retry.with_retries`
        — safe because the transaction is atomic: a locked-out attempt
        stored nothing.
        """
        self._hit("store_many.begin")
        batch = list(prepared)
        if not batch:
            return []
        known_specs = set(self.list_specs())
        existing = set(self.list_runs())
        for p in batch:
            if p.spec_id not in known_specs:
                raise self._missing("spec", p.spec_id)
            self._fresh_id(p.run_id, p.run_id, existing)
            existing.add(p.run_id)
        with self._bulk_writes():
            with self._conn:
                self._conn.executemany(
                    "INSERT INTO run_def (run_id, spec_id) VALUES (?, ?)",
                    [(p.run_id, p.spec_id) for p in batch],
                )
                # A crash from here on aborts the whole transaction —
                # SQLite rolls the batch back on recovery, exactly the
                # hard-kill semantics the chaos suite simulates.
                self._hit("store_many.mid")
                self._conn.executemany(
                    "INSERT INTO step (run_id, step_id, module)"
                    " VALUES (?, ?, ?)",
                    [(p.run_id, step_id, module)
                     for p in batch for step_id, module in p.step_rows],
                )
                self._conn.executemany(
                    "INSERT INTO io (run_id, step_id, data_id, direction)"
                    " VALUES (?, ?, ?, ?)",
                    [(p.run_id, step_id, data_id, direction)
                     for p in batch
                     for step_id, data_id, direction in p.io_rows],
                )
                self._conn.executemany(
                    "INSERT INTO user_input (run_id, data_id) VALUES (?, ?)",
                    [(p.run_id, d) for p in batch for d in p.user_inputs],
                )
                self._conn.executemany(
                    "INSERT INTO final_output (run_id, data_id) VALUES (?, ?)",
                    [(p.run_id, d) for p in batch for d in p.final_outputs],
                )
                for p in batch:
                    if p.labels is not None:
                        self._insert_label_rows(p.labels)
        return [p.run_id for p in batch]

    # ------------------------------------------------------------------
    # Ingest journal and quarantine (crash-safe ingestion)
    # ------------------------------------------------------------------

    @with_retries()
    def journal_begin(self, entries: Sequence["JournalEntry"]) -> None:
        with self._conn:
            self._conn.executemany(
                "INSERT OR REPLACE INTO _ingest_journal"
                " (run_id, spec_id, checksum, batch, state)"
                " VALUES (?, ?, ?, ?, ?)",
                [(e.run_id, e.spec_id, e.checksum, e.batch, JOURNAL_PENDING)
                 for e in entries],
            )

    @with_retries()
    def journal_commit(self, run_ids: Sequence[str]) -> None:
        with self._conn:
            self._conn.executemany(
                "UPDATE _ingest_journal SET state = ? WHERE run_id = ?",
                [(JOURNAL_COMMITTED, run_id) for run_id in run_ids],
            )

    @with_retries()
    def journal_discard(self, run_ids: Sequence[str]) -> None:
        with self._conn:
            self._conn.executemany(
                "DELETE FROM _ingest_journal WHERE run_id = ?",
                [(run_id,) for run_id in run_ids],
            )

    def journal_entries(
        self, state: Optional[str] = None
    ) -> List["JournalEntry"]:
        if state is None:
            cursor = self._conn.execute(
                "SELECT run_id, spec_id, checksum, batch, state"
                " FROM _ingest_journal ORDER BY run_id"
            )
        else:
            cursor = self._conn.execute(
                "SELECT run_id, spec_id, checksum, batch, state"
                " FROM _ingest_journal WHERE state = ? ORDER BY run_id",
                (state,),
            )
        return [
            JournalEntry(run_id=r, spec_id=s, checksum=c, batch=b, state=st)
            for r, s, c, b, st in cursor
        ]

    @with_retries()
    def quarantine_add(self, record: "QuarantineRecord") -> None:
        with self._conn:
            self._conn.execute(
                "INSERT OR REPLACE INTO _ingest_quarantine"
                " (run_id, spec_id, reason, event_index, payload)"
                " VALUES (?, ?, ?, ?, ?)",
                (record.run_id, record.spec_id, record.reason,
                 record.event_index, record.to_payload()),
            )

    def quarantine_list(self) -> List[str]:
        return [
            run_id
            for (run_id,) in self._conn.execute(
                "SELECT run_id FROM _ingest_quarantine ORDER BY run_id"
            )
        ]

    def quarantine_get(self, run_id: str) -> "QuarantineRecord":
        row = self._conn.execute(
            "SELECT spec_id, reason, event_index, payload"
            " FROM _ingest_quarantine WHERE run_id = ?",
            (run_id,),
        ).fetchone()
        if row is None:
            raise self._missing("quarantined run", run_id)
        return QuarantineRecord.from_payload(
            run_id, row[0], row[1], row[2], row[3]
        )

    def quarantine_delete(self, run_id: str) -> None:
        with self._conn:
            deleted = self._conn.execute(
                "DELETE FROM _ingest_quarantine WHERE run_id = ?", (run_id,)
            )
            if deleted.rowcount == 0:
                raise self._missing("quarantined run", run_id)

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
        if self._exists("run_def", "run_id", run_id):
            raise WarehouseError("identifier %r already stored" % run_id)
        with self._conn:
            self._conn.execute(
                "INSERT INTO run_def (run_id, spec_id) VALUES (?, ?)",
                (run_id, spec_id),
            )
            self._conn.execute(
                "INSERT INTO _stream_state"
                " (run_id, spec_id, epoch, checksum, opened_at, state)"
                " VALUES (?, ?, 0, ?, ?, 'open')",
                (run_id, spec_id, checksum, opened_at),
            )

    def stream_state(self, run_id: str) -> Optional[StreamState]:
        row = self._conn.execute(
            "SELECT run_id, spec_id, epoch, checksum, opened_at"
            " FROM _stream_state WHERE run_id = ?",
            (run_id,),
        ).fetchone()
        if row is None:
            return None
        return StreamState(*row)

    def stream_states(self) -> Dict[str, StreamState]:
        return {
            row[0]: StreamState(*row)
            for row in self._conn.execute(
                "SELECT run_id, spec_id, epoch, checksum, opened_at"
                " FROM _stream_state ORDER BY run_id"
            )
        }

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
        """Apply one epoch's delta in a single transaction.

        The delta rows, the ``_stream_state`` advance and the deletion of
        the run's labels commit together, so no reader ever sees labels
        older than the rows, and a crash anywhere inside — including the instrumented
        ``stream.append`` site — rolls the whole epoch back to the
        previous consistent prefix.  An injected lock error at the same
        site aborts the transaction and is retried whole by
        :func:`~repro.obs.retry.with_retries`; ``INSERT OR IGNORE`` keeps
        replayed rows idempotent.
        """
        if self.stream_state(run_id) is None:
            raise WarehouseError("run %r is not open for streaming" % run_id)
        with self._conn:
            self._conn.executemany(
                "INSERT OR IGNORE INTO step (run_id, step_id, module)"
                " VALUES (?, ?, ?)",
                [(run_id, step_id, module) for step_id, module in step_rows],
            )
            self._conn.executemany(
                "INSERT OR IGNORE INTO io"
                " (run_id, step_id, data_id, direction) VALUES (?, ?, ?, ?)",
                [(run_id, step_id, data_id, direction)
                 for step_id, data_id, direction in io_rows],
            )
            self._conn.executemany(
                "INSERT OR IGNORE INTO user_input (run_id, data_id, who)"
                " VALUES (?, ?, ?)",
                [(run_id, data_id, who) for data_id, who in user_inputs],
            )
            self._conn.executemany(
                "INSERT OR IGNORE INTO final_output (run_id, data_id)"
                " VALUES (?, ?)",
                [(run_id, data_id) for data_id in final_outputs],
            )
            self._conn.execute(
                "DELETE FROM lineage_labels WHERE run_id = ?", (run_id,)
            )
            self._conn.execute(
                "DELETE FROM labels_meta WHERE run_id = ?", (run_id,)
            )
            self._hit("stream.append")
            self._conn.execute(
                "UPDATE _stream_state SET epoch = ?, checksum = ?"
                " WHERE run_id = ?",
                (epoch, checksum, run_id),
            )

    @with_retries()
    def stream_close(self, run_id: str) -> None:
        with self._conn:
            deleted = self._conn.execute(
                "DELETE FROM _stream_state WHERE run_id = ?", (run_id,)
            )
            if deleted.rowcount == 0:
                raise self._missing("open streaming run", run_id)

    def list_runs(self, spec_id: Optional[str] = None) -> List[str]:
        if spec_id is None:
            cursor = self._conn.execute("SELECT run_id FROM run_def ORDER BY run_id")
        else:
            cursor = self._conn.execute(
                "SELECT run_id FROM run_def WHERE spec_id = ? ORDER BY run_id",
                (spec_id,),
            )
        return [run_id for (run_id,) in cursor]

    def run_spec_id(self, run_id: str) -> str:
        row = self._conn.execute(
            "SELECT spec_id FROM run_def WHERE run_id = ?", (run_id,)
        ).fetchone()
        if row is None:
            raise self._missing("run", run_id)
        return row[0]

    # ------------------------------------------------------------------
    # Row-level primitives
    # ------------------------------------------------------------------

    def steps_of_run(self, run_id: str) -> List[Tuple[str, str]]:
        self._require("run_def", "run_id", run_id, "run")
        return [
            (step_id, module)
            for step_id, module in self._conn.execute(
                "SELECT step_id, module FROM step WHERE run_id = ? ORDER BY step_id",
                (run_id,),
            )
        ]

    def io_rows(self, run_id: str) -> List[Tuple[str, str, str]]:
        self._require("run_def", "run_id", run_id, "run")
        return [
            tuple(row)
            for row in self._conn.execute(
                "SELECT step_id, data_id, direction FROM io WHERE run_id = ?"
                " ORDER BY step_id, direction, data_id",
                (run_id,),
            )
        ]

    def user_inputs(self, run_id: str) -> FrozenSet[str]:
        self._require("run_def", "run_id", run_id, "run")
        return frozenset(
            data_id
            for (data_id,) in self._conn.execute(
                "SELECT data_id FROM user_input WHERE run_id = ?", (run_id,)
            )
        )

    def final_outputs(self, run_id: str) -> FrozenSet[str]:
        self._require("run_def", "run_id", run_id, "run")
        return frozenset(
            data_id
            for (data_id,) in self._conn.execute(
                "SELECT data_id FROM final_output WHERE run_id = ?", (run_id,)
            )
        )

    def producer_of(self, run_id: str, data_id: str) -> str:
        rows = self._conn.execute(
            "SELECT step_id FROM io WHERE run_id = ? AND data_id = ?"
            " AND direction = ?",
            (run_id, data_id, DIR_OUT),
        ).fetchall()
        if len(rows) > 1:
            # A data object with two producers violates the run model; a
            # bare fetchone() would nondeterministically pick one and turn
            # table corruption into silently wrong provenance.
            raise WarehouseError(
                "data %r in run %r has %d producing steps (%s); "
                "the io table is corrupt"
                % (data_id, run_id, len(rows),
                   ", ".join(sorted(step for (step,) in rows)))
            )
        if rows:
            return rows[0][0]
        user = self._conn.execute(
            "SELECT 1 FROM user_input WHERE run_id = ? AND data_id = ?",
            (run_id, data_id),
        ).fetchone()
        if user is not None:
            return INPUT
        raise self._missing("data", data_id)

    def step_inputs(self, run_id: str, step_id: str) -> FrozenSet[str]:
        self.module_of_step(run_id, step_id)  # validates (run, step)
        return frozenset(
            data_id
            for (data_id,) in self._conn.execute(
                "SELECT data_id FROM io WHERE run_id = ? AND step_id = ?"
                " AND direction = ?",
                (run_id, step_id, DIR_IN),
            )
        )

    def step_outputs(self, run_id: str, step_id: str) -> FrozenSet[str]:
        self.module_of_step(run_id, step_id)  # validates (run, step)
        return frozenset(
            data_id
            for (data_id,) in self._conn.execute(
                "SELECT data_id FROM io WHERE run_id = ? AND step_id = ?"
                " AND direction = ?",
                (run_id, step_id, DIR_OUT),
            )
        )

    def module_of_step(self, run_id: str, step_id: str) -> str:
        row = self._conn.execute(
            "SELECT module FROM step WHERE run_id = ? AND step_id = ?",
            (run_id, step_id),
        ).fetchone()
        if row is None:
            raise self._missing("step", step_id)
        return row[0]

    # ------------------------------------------------------------------
    # User-input metadata and annotations
    # ------------------------------------------------------------------

    def user_input_who(self, run_id: str, data_id: str) -> str:
        row = self._conn.execute(
            "SELECT who FROM user_input WHERE run_id = ? AND data_id = ?",
            (run_id, data_id),
        ).fetchone()
        if row is None:
            raise self._missing("user input", data_id)
        return row[0]

    def _set_user_input_who(self, run_id: str, who: Dict[str, str]) -> None:
        with self._conn:
            for data_id, supplier in sorted(who.items()):
                updated = self._conn.execute(
                    "UPDATE user_input SET who = ? WHERE run_id = ?"
                    " AND data_id = ?",
                    (supplier, run_id, data_id),
                )
                if updated.rowcount == 0:
                    raise WarehouseError(
                        "not a user input of %r: %r" % (run_id, data_id)
                    )

    def annotate(self, run_id: str, subject: str, key: str, value: str) -> None:
        is_step = self._conn.execute(
            "SELECT 1 FROM step WHERE run_id = ? AND step_id = ?",
            (run_id, subject),
        ).fetchone()
        is_data = self._conn.execute(
            "SELECT 1 FROM io WHERE run_id = ? AND data_id = ? LIMIT 1",
            (run_id, subject),
        ).fetchone() or self._conn.execute(
            "SELECT 1 FROM user_input WHERE run_id = ? AND data_id = ?",
            (run_id, subject),
        ).fetchone()
        if not is_step and not is_data:
            raise self._missing("step or data", subject)
        with self._conn:
            self._conn.execute(
                "INSERT INTO annotation (run_id, subject, key, value)"
                " VALUES (?, ?, ?, ?)"
                " ON CONFLICT (run_id, subject, key)"
                " DO UPDATE SET value = excluded.value",
                (run_id, subject, key, value),
            )

    def annotations_of(self, run_id: str, subject: str) -> Dict[str, str]:
        return {
            key: value
            for key, value in self._conn.execute(
                "SELECT key, value FROM annotation WHERE run_id = ?"
                " AND subject = ?",
                (run_id, subject),
            )
        }

    def find_annotated(
        self, run_id: str, key: str, value: Optional[str] = None
    ) -> List[str]:
        if value is None:
            cursor = self._conn.execute(
                "SELECT subject FROM annotation WHERE run_id = ? AND key = ?"
                " ORDER BY subject",
                (run_id, key),
            )
        else:
            cursor = self._conn.execute(
                "SELECT subject FROM annotation WHERE run_id = ? AND key = ?"
                " AND value = ? ORDER BY subject",
                (run_id, key, value),
            )
        return [subject for (subject,) in cursor]

    # ------------------------------------------------------------------
    # Compact reachability labels
    # ------------------------------------------------------------------

    def _insert_label_rows(self, labels: "LineageLabels") -> None:
        """Insert one run's label rows; runs inside the caller's transaction."""
        rows = [
            (labels.run_id, step_id, pre, post, parent, remainder)
            for step_id, pre, post, parent, remainder
            in labels.iter_table_rows()
        ]
        self._conn.executemany(
            "INSERT INTO lineage_labels"
            " (run_id, step_id, pre, post, tree_parent, remainder)"
            " VALUES (?, ?, ?, ?, ?, ?)",
            rows,
        )
        self._conn.execute(
            "INSERT INTO labels_meta (run_id, version, row_count)"
            " VALUES (?, ?, ?)",
            (labels.run_id, labels.version, len(rows)),
        )

    def _store_lineage_labels(self, labels: "LineageLabels") -> None:
        with self._conn:
            self._insert_label_rows(labels)

    def has_label_index(self, run_id: str) -> bool:
        self._require("run_def", "run_id", run_id, "run")
        return self._exists("labels_meta", "run_id", run_id)

    def label_row_count(self, run_id: str) -> Optional[int]:
        self._require("run_def", "run_id", run_id, "run")
        row = self._conn.execute(
            "SELECT row_count FROM labels_meta WHERE run_id = ?", (run_id,)
        ).fetchone()
        return None if row is None else row[0]

    def label_index_version(self, run_id: str) -> Optional[int]:
        self._require("run_def", "run_id", run_id, "run")
        row = self._conn.execute(
            "SELECT version FROM labels_meta WHERE run_id = ?", (run_id,)
        ).fetchone()
        return None if row is None else row[0]

    def drop_label_index(self, run_id: Optional[str] = None) -> List[str]:
        if run_id is None:
            targets = [
                rid
                for (rid,) in self._conn.execute(
                    "SELECT run_id FROM labels_meta ORDER BY run_id"
                )
            ]
        else:
            self._require("run_def", "run_id", run_id, "run")
            targets = [run_id] if self._exists("labels_meta", "run_id", run_id) else []
        with self._conn:
            for target in targets:
                self._conn.execute(
                    "DELETE FROM lineage_labels WHERE run_id = ?", (target,)
                )
                self._conn.execute(
                    "DELETE FROM labels_meta WHERE run_id = ?", (target,)
                )
        return targets

    def label_lookup(self, run_id: str, data_id: str) -> ProvenanceResult:
        from ..provenance.labels import labels_from_stored

        with self._snapshot():
            version = self.label_index_version(run_id)
            if version is None:
                raise WarehouseError("run %r has no label index" % run_id)
            # Validate the data id first; rehydration would otherwise
            # report an unknown object as "not covered" instead of
            # unknown.
            self.producer_of(run_id, data_id)
            label_rows = [
                (step_id, pre, post, parent, remainder)
                for step_id, pre, post, parent, remainder
                in self._conn.execute(
                    "SELECT step_id, pre, post, tree_parent, remainder"
                    " FROM lineage_labels WHERE run_id = ?",
                    (run_id,),
                )
            ]
            labels = labels_from_stored(
                run_id,
                label_rows,
                self.steps_of_run(run_id),
                self.io_rows(run_id),
                sorted(self.user_inputs(run_id)),
                version=version,
            )
        return labels.result_for(data_id)

    def label_rows_raw(self, run_id: str) -> Set[Tuple[str, int, int, str, str]]:
        self._require("run_def", "run_id", run_id, "run")
        return {
            tuple(row)
            for row in self._conn.execute(
                "SELECT step_id, pre, post, tree_parent, remainder"
                " FROM lineage_labels WHERE run_id = ?",
                (run_id,),
            )
        }

    def delete_run(self, run_id: str) -> None:
        self._require("run_def", "run_id", run_id, "run")
        with self._conn:
            # Children first: every dependent table references run_def.
            # The journal and quarantine rows go too — deleting a run is
            # a statement that the warehouse no longer tracks it at all.
            for table in (
                "lineage_labels",
                "labels_meta",
                "annotation",
                "final_output",
                "user_input",
                "io",
                "step",
                "run_def",
                "_ingest_journal",
                "_ingest_quarantine",
                "_stream_state",
            ):
                self._conn.execute(
                    "DELETE FROM %s WHERE run_id = ?" % table, (run_id,)
                )

    # ------------------------------------------------------------------
    # Recursive closure (WITH RECURSIVE)
    # ------------------------------------------------------------------

    def admin_deep_provenance(self, run_id: str, data_id: str) -> ProvenanceResult:
        with self._snapshot():
            # Validate the data id first; the recursive query would
            # silently return an empty lineage for an unknown object.
            self.producer_of(run_id, data_id)
            params = {"run_id": run_id, "data_id": data_id}
            result = ProvenanceResult(target=data_id, view_name="UAdmin")
            for step_id, module, data_in in self._conn.execute(
                SQLITE_DEEP_PROVENANCE, params
            ):
                result.rows.append(
                    ProvenanceRow(
                        step_id=step_id, module=module, data_in=data_in
                    )
                )
            for (lineage_data,) in self._conn.execute(
                SQLITE_LINEAGE_USER_INPUTS, params
            ):
                result.user_inputs.add(lineage_data)
            return result
