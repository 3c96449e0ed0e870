#!/usr/bin/env python
"""Build a deliberately corrupted SQLite provenance warehouse.

``zoom lint --db`` exists because real warehouses rot: partial ingests,
hand-edited rows, two log shippers racing each other.  This script
manufactures that rot on purpose — it stores one healthy specification,
view and run through the official API, then vandalises the database with
direct SQL so every analyzer layer (spec, run, view, warehouse) has
something to report.

Planted defects and the rules they trigger:

* a second spec whose module rows contain a duplicate, a reserved label,
  a dangling edge and an unreachable module (``SPEC001``/``SPEC002``/
  ``SPEC003``/``SPEC006``/``SPEC007``);
* a view that cites an unknown module and leaves part of the spec
  uncovered (``VIEW020``/``VIEW022``);
* a run with a data object written by two steps, a step executing an
  undeclared module, an io row for a step that does not exist, a read of
  data nothing produced and a final output that was never written
  (``WH030``–``WH034``), plus a run row pointing at a spec id that is
  not stored (``WH035``) and a stepless run (``WH037``);
* a pending ingest-journal row for a run the warehouse never received —
  the footprint of a bulk load killed between journalling and commit
  (``WH041``, torn ingest);
* a streaming run left open at rest — its producer died without
  finalizing (``WH046``).

Usage::

    python examples/corrupt_warehouse.py [path.sqlite]

Prints the path it wrote; lint it with::

    zoom lint --db corrupt.sqlite
    zoom lint --db corrupt.sqlite --strict   # exit code 1
"""

from __future__ import annotations

import sqlite3
import sys

from repro.core.spec import INPUT, OUTPUT, WorkflowSpec
from repro.core.view import UserView
from repro.run.executor import simulate
from repro.run.log import EventLog
from repro.warehouse.sqlite import SqliteWarehouse
from repro.warehouse.streaming import StreamingIngestor, chunk_log


def build(path: str) -> str:
    """Write the corrupted warehouse to ``path`` and return ``path``."""
    warehouse = SqliteWarehouse(path)

    # A healthy baseline first: corruption is only interesting when it
    # sits next to rows that are fine.
    spec = WorkflowSpec(
        modules=["A", "B", "C"],
        edges=[(INPUT, "A"), ("A", "B"), ("B", "C"), ("C", OUTPUT)],
        name="healthy",
    )
    spec_id = warehouse.store_spec(spec, spec_id="healthy")
    warehouse.store_view(
        UserView(spec, {"P": {"A", "B"}, "Q": {"C"}}, name="ok-view"),
        spec_id,
        view_id="healthy/ok-view",
    )
    warehouse.store_run(simulate(spec).run, spec_id, run_id="healthy/run1")

    # A streaming run, appended through the official protocol but never
    # finalized — the footprint of a producer that died mid-run.
    ingestor = StreamingIngestor(warehouse)
    log = EventLog()
    log.user_input("d0")
    log.start("st1", "A")
    log.read("st1", "d0")
    log.write("st1", "d1")
    ingestor.open_run("healthy/stream1", spec_id)
    for chunk in chunk_log(log):
        ingestor.ingest_events("healthy/stream1", chunk)
    warehouse.close()

    # Now the vandalism, straight into the tables.
    db = sqlite3.connect(path)
    with db:
        # -- spec layer: "mangled" has a reserved label, a duplicate
        #    module row, a dangling edge and modules off the input/output
        #    path.
        db.execute("INSERT INTO spec VALUES ('mangled', 'mangled')")
        db.executemany(
            "INSERT INTO module VALUES ('mangled', ?)",
            [("X",), ("Y",), ("input",)],
        )
        # The (spec_id, module) primary key forbids duplicate rows, so the
        # duplicate label hides in the edge set instead — lint reads both.
        db.executemany(
            "INSERT INTO spec_edge VALUES ('mangled', ?, ?)",
            [
                (INPUT, "X"),
                ("X", OUTPUT),
                ("X", "ghost"),      # dangling: 'ghost' is not a module
                ("Y", "Y"),          # self-loop, and Y is unreachable
            ],
        )

        # -- view layer: overlapping composites, a cited module that the
        #    spec does not declare, and 'C' left uncovered.
        db.execute(
            "INSERT INTO view_def VALUES ('healthy/bad-view', 'healthy', 'bad-view')"
        )
        db.executemany(
            "INSERT INTO view_member VALUES ('healthy/bad-view', ?, ?)",
            [
                ("P", "A"),
                ("Q", "B"),
                ("R", "phantom"),    # unknown module
            ],
        )
        # (Overlapping composites — VIEW021 — cannot be planted here: the
        # (view_id, module) primary key rules them out, which is itself a
        # nice property of the schema.)

        # -- run/warehouse layer: one run, many sins.
        db.execute("INSERT INTO run_def VALUES ('healthy/bad-run', 'healthy')")
        db.executemany(
            "INSERT INTO step VALUES ('healthy/bad-run', ?, ?)",
            [("s1", "A"), ("s2", "B"), ("s3", "imposter")],  # WH031
        )
        db.executemany(
            "INSERT INTO io VALUES ('healthy/bad-run', ?, ?, ?)",
            [
                ("s1", "d1", "out"),
                ("s2", "d1", "out"),        # WH030: two producers
                ("s2", "d_missing", "in"),  # WH033: read, never produced
                ("s9", "d2", "out"),        # WH032: step 's9' not declared
            ],
        )
        db.execute(
            "INSERT INTO final_output VALUES ('healthy/bad-run', 'd_final')"
        )  # WH034: never produced

        # -- a run whose spec row dangles (WH035) and that has no steps
        #    at all (WH037).
        db.execute("INSERT INTO run_def VALUES ('lost/run', 'no-such-spec')")

        # -- a torn ingest (WH041): the journal promised 'healthy/run9'
        #    but the load died before the batch committed.
        db.execute(
            "INSERT INTO _ingest_journal VALUES"
            " ('healthy/run9', 'healthy', 'deadbeef', 1, 'pending')"
        )

        # -- an abandoned stream (WH046): the open-run row is aged an
        #    hour so the default --open-run-age of 0 and any realistic
        #    threshold both flag it.
        db.execute(
            "UPDATE _stream_state SET opened_at = opened_at - 3600"
        )
    db.close()
    return path


def main(argv=None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    path = args[0] if args else "corrupt.sqlite"
    print(build(path))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
