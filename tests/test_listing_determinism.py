"""Regression tests: every listing API is deterministically ordered.

A listing that follows storage or insertion order would differ between
backends and between reopens, so this suite pins the contract for
*every* backend: ``list_specs``/``list_runs``/
``list_views``/``quarantine_list`` and ``find_annotated`` return sorted
lists, identical across repeated calls, across reopens, and across
backends holding the same contents.  Insertion order is deliberately
scrambled to prove the ordering comes from sorting, not storage.
"""

from __future__ import annotations

import random

import pytest

from repro.warehouse.loader import load_dataset
from repro.warehouse.memory import InMemoryWarehouse
from repro.warehouse.sqlite import SqliteWarehouse
from repro.workloads.classes import RUN_CLASSES, WORKFLOW_CLASSES
from repro.workloads.generator import generate_workflow
from repro.workloads.runs import generate_run

BACKENDS = ("memory", "sqlite")


def make_warehouse(backend, tmp_path):
    if backend == "memory":
        return InMemoryWarehouse()
    return SqliteWarehouse(str(tmp_path / "wh.db"))


def scrambled_workload(seed=23):
    """Specs and runs whose ids arrive in deliberately unsorted order."""
    rng = random.Random(seed)
    classes = sorted(WORKFLOW_CLASSES)
    items = []
    for name in ("wfZ", "wfA", "wfM"):
        generated = generate_workflow(
            WORKFLOW_CLASSES[classes[0]], rng, target_size=8, name=name,
        )
        runs = [
            generate_run(generated.spec, RUN_CLASSES["small"], rng,
                         run_id="r%d" % n)
            for n in (3, 1, 2)
        ]
        items.append((generated.spec, runs))
    return items


@pytest.fixture(params=BACKENDS)
def loaded(request, tmp_path):
    warehouse = make_warehouse(request.param, tmp_path)
    load_dataset(warehouse, scrambled_workload())
    yield request.param, warehouse
    close = getattr(warehouse, "close", None)
    if close:
        close()


class TestListingsAreSorted:
    def test_list_specs_sorted_and_stable(self, loaded):
        _backend, warehouse = loaded
        listing = warehouse.list_specs()
        assert listing == sorted(listing)
        assert listing == warehouse.list_specs()
        assert listing == ["wfA", "wfM", "wfZ"]

    def test_list_runs_sorted_and_stable(self, loaded):
        _backend, warehouse = loaded
        listing = warehouse.list_runs()
        assert listing == sorted(listing)
        assert listing == warehouse.list_runs()
        assert len(listing) == 9

    def test_list_runs_scoped_to_spec_sorted(self, loaded):
        _backend, warehouse = loaded
        scoped = warehouse.list_runs("wfM")
        assert scoped == sorted(scoped)
        assert all(run_id.startswith("wfM/") for run_id in scoped)

    def test_list_views_sorted_and_stable(self, loaded):
        _backend, warehouse = loaded
        listing = warehouse.list_views()
        assert listing == sorted(listing)
        assert listing == warehouse.list_views()

    def test_find_annotated_sorted_and_stable(self, loaded):
        _backend, warehouse = loaded
        run_id = warehouse.list_runs()[0]
        # Annotate in scrambled subject order.
        subjects = sorted(s for s, _ in warehouse.steps_of_run(run_id))[:3]
        for subject in reversed(subjects):
            warehouse.annotate(run_id, subject, "flag", "on")
        found = warehouse.find_annotated(run_id, "flag")
        assert found == sorted(found)
        assert found == subjects
        assert found == warehouse.find_annotated(run_id, "flag")


class TestListingsAgreeAcrossBackends:
    def test_all_backends_list_identically(self, tmp_path):
        listings = {}
        for backend in BACKENDS:
            (tmp_path / backend).mkdir(exist_ok=True)
            warehouse = make_warehouse(backend, tmp_path / backend)
            try:
                load_dataset(warehouse, scrambled_workload())
                listings[backend] = (
                    warehouse.list_specs(),
                    warehouse.list_runs(),
                    warehouse.list_views(),
                )
            finally:
                close = getattr(warehouse, "close", None)
                if close:
                    close()
        assert listings["sqlite"] == listings["memory"]

    def test_listing_stable_across_reopen(self, tmp_path):
        path = str(tmp_path / "wh.db")
        with SqliteWarehouse(path) as warehouse:
            load_dataset(warehouse, scrambled_workload())
            before = (warehouse.list_specs(), warehouse.list_runs())
        for _ in range(3):
            with SqliteWarehouse(path) as reopened:
                assert (
                    reopened.list_specs(), reopened.list_runs()
                ) == before
