"""The run checksum: an additive multiset hash shared by every ingest path.

A streamed epoch extends the run's digest by hashing only its own delta
rows; batch loads, stored-row recomputation, resume and recovery compute
the same function.  Covered here:

* the digest is order-independent and sensitive to any single-row edit,
  and tags each relation, so one id as a user input and as a final output
  hashes differently;
* a hypothesis property over generated logs — random chunkings that
  split step blocks, replayed events — keeps every epoch's checksum equal
  to the stored rows' and the final one equal to a batch-loaded twin's;
* no epoch ever hashes the whole run;
* a warehouse whose unsettled checksums predate the scheme gets a clear
  error from recovery, never a silent delete;
* a quarantined run retries under a freshly computed checksum.
"""

from __future__ import annotations

import hashlib
import json
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.errors import WarehouseError
from repro.run.log import log_from_run
from repro.warehouse import recovery, streaming
from repro.warehouse.memory import InMemoryWarehouse
from repro.warehouse.pipeline import ingest_dataset
from repro.warehouse.recovery import (
    CHECKSUM_SCHEME,
    JOURNAL_COMMITTED,
    JournalEntry,
    QuarantineRecord,
    RunDigest,
    checksum_stored_run,
    recover,
    retry_quarantined,
    run_checksum,
)
from repro.warehouse.sqlite import SqliteWarehouse
from repro.warehouse.streaming import StreamingIngestor, chunk_log
from repro.workloads.classes import RUN_CLASSES, WORKFLOW_CLASSES
from repro.workloads.generator import generate_workflow
from repro.workloads.runs import generate_run
from repro.zoom.cli import main

STEPS = [("S1", "M1"), ("S2", "M2"), ("S3", "M2")]
IO = [("S1", "d1", "in"), ("S1", "d2", "out"), ("S2", "d2", "in"),
      ("S2", "d3", "out"), ("S3", "d3", "in"), ("S3", "d4", "out")]
INPUTS = ["d1"]
FINALS = ["d4"]


def legacy_checksum(spec_id, step_rows, io_rows, user_inputs, final_outputs):
    """The untagged scheme older releases journalled: SHA-256 of sorted JSON."""
    payload = {
        "spec_id": spec_id,
        "steps": sorted([s, m] for s, m in step_rows),
        "io": sorted([s, d, direction] for s, d, direction in io_rows),
        "user_inputs": sorted(user_inputs),
        "final_outputs": sorted(final_outputs),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def legacy_stored(warehouse, run_id):
    return legacy_checksum(
        warehouse.run_spec_id(run_id),
        warehouse.steps_of_run(run_id),
        warehouse.io_rows(run_id),
        warehouse.user_inputs(run_id),
        warehouse.final_outputs(run_id),
    )


def generated_case(seed, size=8, name="dg"):
    """A generated spec, one simulated run of it, and the run's event log."""
    rng = random.Random(seed)
    classes = sorted(WORKFLOW_CLASSES)
    generated = generate_workflow(
        WORKFLOW_CLASSES[classes[seed % len(classes)]], rng,
        target_size=size, name=name,
    )
    simulation = generate_run(
        generated.spec, RUN_CLASSES["small"], rng, run_id="r0"
    )
    return generated.spec, simulation, list(log_from_run(simulation.run))


def batch_twin_checksum(spec, simulation):
    twin = InMemoryWarehouse()
    (record,) = ingest_dataset(twin, [(spec, [simulation])])
    return checksum_stored_run(twin, record.run_ids[0])


# ----------------------------------------------------------------------
# The digest itself
# ----------------------------------------------------------------------


class TestRunDigest:
    def test_checksum_names_its_scheme(self):
        checksum = run_checksum("wf", STEPS, IO, INPUTS, FINALS)
        assert checksum.startswith(CHECKSUM_SCHEME)
        assert len(checksum) == len(CHECKSUM_SCHEME) + 64

    def test_row_order_does_not_matter(self):
        rng = random.Random(3)
        expected = run_checksum("wf", STEPS, IO, INPUTS, FINALS)
        for _ in range(5):
            steps, io = list(STEPS), list(IO)
            rng.shuffle(steps)
            rng.shuffle(io)
            assert run_checksum("wf", steps, io, INPUTS, FINALS) == expected

    def test_adding_dropping_or_changing_a_row_changes_it(self):
        base = run_checksum("wf", STEPS, IO, INPUTS, FINALS)
        variants = [
            (STEPS + [("S4", "M1")], IO, INPUTS, FINALS),
            (STEPS[1:], IO, INPUTS, FINALS),
            ([("S1", "M9")] + STEPS[1:], IO, INPUTS, FINALS),
            (STEPS, IO + [("S3", "d9", "out")], INPUTS, FINALS),
            (STEPS, IO[:-1], INPUTS, FINALS),
            (STEPS, [("S1", "d1", "out")] + IO[1:], INPUTS, FINALS),
            (STEPS, IO, INPUTS + ["d9"], FINALS),
            (STEPS, IO, [], FINALS),
            (STEPS, IO, INPUTS, ["d3"]),
        ]
        checksums = {run_checksum("wf", *v) for v in variants}
        assert base not in checksums
        assert len(checksums) == len(variants)
        assert run_checksum("other", STEPS, IO, INPUTS, FINALS) != base

    def test_relations_are_tagged(self):
        # The same id as a user input and as a final output.
        assert run_checksum("wf", [], [], ["d1"], []) != \
            run_checksum("wf", [], [], [], ["d1"])
        assert run_checksum("wf", [("d1", "x")], [], [], []) != \
            run_checksum("wf", [], [], [], ["d1\0x"])

    def test_digest_is_additive_over_disjoint_deltas(self):
        whole = RunDigest("wf").add(STEPS, IO, INPUTS, FINALS)
        stepped = (
            RunDigest("wf")
            .add(STEPS[:1], IO[:2], INPUTS)
            .add(STEPS[1:], IO[2:4])
            .add(io_rows=IO[4:], final_outputs=FINALS)
        )
        assert stepped == whole
        assert stepped.checksum == run_checksum("wf", STEPS, IO, INPUTS, FINALS)


# ----------------------------------------------------------------------
# Streamed, stored and batch-twin checksums agree
# ----------------------------------------------------------------------


@st.composite
def streamed_logs(draw):
    """A generated log cut at arbitrary events, with replayed duplicates."""
    seed = draw(st.integers(min_value=0, max_value=2**16))
    spec, simulation, events = generated_case(
        seed, size=draw(st.integers(min_value=4, max_value=10))
    )
    cuts = sorted(draw(st.sets(
        st.integers(min_value=1, max_value=max(1, len(events) - 1)),
        max_size=12,
    )))
    bounds = [0] + [c for c in cuts if c < len(events)] + [len(events)]
    chunks = [events[a:b] for a, b in zip(bounds, bounds[1:])]
    # Replay an already-sent event at the end of a later (or the same)
    # chunk; a resent event must change neither rows nor checksum.
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        index = draw(st.integers(min_value=0, max_value=len(chunks) - 1))
        sent = bounds[index + 1]
        chunks[index] = chunks[index] + [
            events[draw(st.integers(min_value=0, max_value=sent - 1))]
        ]
    return spec, simulation, chunks


@given(streamed_logs())
@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_every_epoch_checksum_equals_the_stored_rows(case):
    spec, simulation, chunks = case
    warehouse = InMemoryWarehouse()
    spec_id = warehouse.store_spec(spec)
    ingestor = StreamingIngestor(warehouse)
    ingestor.open_run("dg/run1", spec_id)
    for chunk in chunks:
        ingestor.ingest_events("dg/run1", chunk)
        stored = checksum_stored_run(warehouse, "dg/run1")
        assert warehouse.stream_state("dg/run1").checksum == stored
        (entry,) = warehouse.journal_entries()
        assert (entry.state, entry.checksum) == (JOURNAL_COMMITTED, stored)
    final = ingestor.finalize_run("dg/run1")
    assert final == checksum_stored_run(warehouse, "dg/run1")
    assert final == batch_twin_checksum(spec, simulation)


def test_resumed_stream_rebuilds_the_digest_from_stored_rows():
    spec, simulation, events = generated_case(5)
    warehouse = InMemoryWarehouse()
    spec_id = warehouse.store_spec(spec)
    chunks = chunk_log(events, max_events=4)
    first = StreamingIngestor(warehouse)
    first.open_run("dg/run1", spec_id)
    for chunk in chunks[: len(chunks) // 2]:
        first.ingest_events("dg/run1", chunk)
    resumed = StreamingIngestor(warehouse)
    resumed.open_run("dg/run1", resume=True)
    for chunk in chunks:
        resumed.ingest_events("dg/run1", chunk)
    assert resumed.finalize_run("dg/run1") == batch_twin_checksum(spec, simulation)


def test_no_epoch_hashes_the_whole_run(monkeypatch):
    """Streaming a run never calls the full-run checksum, and every digest
    extension hashes at most one epoch's rows."""
    spec, simulation, events = generated_case(9, size=10)
    chunks = chunk_log(events, max_events=4)
    assert len(chunks) >= 4
    largest = max(len(chunk) for chunk in chunks)

    def refuse(*_args, **_kwargs):
        raise AssertionError("full-run checksum computed during streaming")

    hashed = []
    real_add = RunDigest.add

    def counting_add(self, step_rows=(), io_rows=(), user_inputs=(),
                     final_outputs=()):
        rows = [list(step_rows), list(io_rows), list(user_inputs),
                list(final_outputs)]
        hashed.append(sum(len(r) for r in rows))
        return real_add(self, *rows)

    monkeypatch.setattr(recovery, "run_checksum", refuse)
    monkeypatch.setattr(recovery, "checksum_stored_run", refuse)
    monkeypatch.setattr(RunDigest, "add", counting_add)
    assert not hasattr(streaming, "run_checksum")

    warehouse = InMemoryWarehouse()
    spec_id = warehouse.store_spec(spec)
    ingestor = StreamingIngestor(warehouse)
    ingestor.open_run("dg/run1", spec_id)
    for chunk in chunks:
        ingestor.ingest_events("dg/run1", chunk)
    final = ingestor.finalize_run("dg/run1")
    monkeypatch.undo()

    assert len(hashed) == len(chunks)
    assert max(hashed) <= largest
    assert final == checksum_stored_run(warehouse, "dg/run1")


# ----------------------------------------------------------------------
# A warehouse written under the older, untagged scheme
# ----------------------------------------------------------------------


def _old_scheme_warehouse(path):
    """Three runs: a committed batch run, a pending batch run and an open
    stream, all journalled under the untagged scheme."""
    spec, simulation, events = generated_case(13)
    warehouse = SqliteWarehouse(path)
    (record,) = ingest_dataset(warehouse, [(spec, [simulation, simulation])])
    committed, pending = record.run_ids
    for run_id in (committed, pending):
        warehouse.journal_begin([JournalEntry(
            run_id=run_id, spec_id=record.spec_id,
            checksum=legacy_stored(warehouse, run_id), batch=1,
        )])
    warehouse.journal_commit([committed])

    ingestor = StreamingIngestor(warehouse)
    streamed = "%s/live" % record.spec_id
    ingestor.open_run(streamed, record.spec_id)
    for chunk in chunk_log(events, max_events=4)[:3]:
        ingestor.ingest_events(streamed, chunk)
    legacy = legacy_stored(warehouse, streamed)
    with warehouse._conn:
        warehouse._conn.execute(
            "UPDATE _stream_state SET checksum = ? WHERE run_id = ?",
            (legacy, streamed),
        )
        warehouse._conn.execute(
            "UPDATE _ingest_journal SET checksum = ? WHERE run_id = ?",
            (legacy, streamed),
        )
    return warehouse, committed, pending, streamed


def _snapshot(warehouse):
    return (
        sorted(warehouse.list_runs()),
        sorted((e.run_id, e.state, e.checksum)
               for e in warehouse.journal_entries()),
        sorted(warehouse.stream_states().items()),
        {run_id: legacy_stored(warehouse, run_id)
         for run_id in warehouse.list_runs()},
    )


class TestOldSchemeWarehouse:
    def test_recover_names_the_runs_and_deletes_nothing(self, tmp_path):
        path = str(tmp_path / "old.sqlite")
        warehouse, committed, pending, streamed = _old_scheme_warehouse(path)
        warehouse.close()
        warehouse = SqliteWarehouse(path)
        before = _snapshot(warehouse)
        with pytest.raises(WarehouseError) as info:
            recover(warehouse)
        message = str(info.value)
        assert repr(pending) in message
        assert repr(streamed) in message
        assert repr(committed) not in message
        assert _snapshot(warehouse) == before
        # A resumed stream goes through recovery, and stops the same way.
        with pytest.raises(WarehouseError, match="older scheme"):
            StreamingIngestor(warehouse).open_run(streamed, resume=True)
        assert _snapshot(warehouse) == before
        warehouse.close()

    def test_committed_old_entries_stay_untouched_and_lint_clean(
        self, tmp_path
    ):
        path = str(tmp_path / "old.sqlite")
        warehouse, committed, pending, streamed = _old_scheme_warehouse(path)
        # Leave only the committed old-scheme entry behind.
        warehouse.delete_run(pending)
        warehouse.delete_run(streamed)
        (entry,) = warehouse.journal_entries()
        assert not entry.checksum.startswith(CHECKSUM_SCHEME)

        report = recover(warehouse)
        assert report.clean
        assert warehouse.journal_entries() == [entry]
        assert warehouse.list_runs() == [committed]
        warehouse.close()
        assert main(["lint", "--db", path, "--strict"]) == 0


# ----------------------------------------------------------------------
# Quarantine retry
# ----------------------------------------------------------------------


@pytest.mark.parametrize("backend", ["memory", "sqlite"])
def test_quarantine_retry_recomputes_a_stale_checksum(backend):
    spec, simulation, _events = generated_case(21)
    source = InMemoryWarehouse()
    (record,) = ingest_dataset(source, [(spec, [simulation])])
    run_id = record.run_ids[0]
    rows = dict(
        step_rows=sorted(source.steps_of_run(run_id)),
        io_rows=sorted(source.io_rows(run_id)),
        user_inputs=sorted(source.user_inputs(run_id)),
        final_outputs=sorted(source.final_outputs(run_id)),
    )
    # A payload as an older release wrote it, carrying its own checksum.
    payload = json.loads(QuarantineRecord(
        run_id=run_id, spec_id=record.spec_id, source_run_id="r0",
        reason="RunError: test", **rows,
    ).to_payload())
    payload["checksum"] = legacy_stored(source, run_id)
    quarantined = QuarantineRecord.from_payload(
        run_id, record.spec_id, "RunError: test", None, json.dumps(payload)
    )

    warehouse = SqliteWarehouse() if backend == "sqlite" else InMemoryWarehouse()
    warehouse.store_spec(spec)
    warehouse.quarantine_add(quarantined)
    assert retry_quarantined(warehouse, force=True) == {run_id: "stored"}
    (entry,) = warehouse.journal_entries()
    assert entry.state == JOURNAL_COMMITTED
    assert entry.checksum == checksum_stored_run(warehouse, run_id)
    assert recover(warehouse).clean
    assert warehouse.list_runs() == [run_id]
