"""Unit tests for the benchmark's own helpers.

    python3 -m pytest perfbench -q

They cover the statistics the metrics rest on (nearest-rank percentile
with its ten-samples-beyond rule, span self time, failure accounting),
the determinism of the seeded inputs and of a window's request count,
and that ``run.py`` reports exactly
the metrics ``BENCHMARK.json`` names.
"""

from __future__ import annotations

import contextlib
import json
import os
import random
import sys
import threading
from concurrent.futures import Future
from types import SimpleNamespace

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import inputs  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from inputs import RequestStream, RunInput  # noqa: E402
from stats import Tally, TooFewSamples, covered, median, percentile, self_time  # noqa: E402
from tracing import Recorder, Span, breakdown  # noqa: E402

# ----------------------------------------------------------------------
# Percentiles
# ----------------------------------------------------------------------


def test_percentile_is_nearest_rank():
    samples = list(range(1, 1001))
    random.Random(3).shuffle(samples)
    assert percentile(samples, 99) == 990
    assert percentile(samples, 50) == 500
    assert percentile(list(range(1, 21)), 50) == 10


def test_p99_needs_ten_samples_beyond():
    assert percentile(list(range(1000)), 99) == 989
    with pytest.raises(TooFewSamples):
        percentile(list(range(999)), 99)


def test_p50_needs_twenty_samples():
    with pytest.raises(TooFewSamples):
        percentile(list(range(19)), 50)
    with pytest.raises(TooFewSamples):
        percentile([], 50)


def test_median_even_and_odd():
    assert median([3, 1, 2]) == 2
    assert median([4, 1, 3, 2]) == 2.5


# ----------------------------------------------------------------------
# Self time
# ----------------------------------------------------------------------


def test_self_time_subtracts_union_of_children():
    # Children overlap on [2, 3] and one reaches past the parent's end.
    children = [(1.0, 3.0), (2.0, 5.0), (8.0, 12.0)]
    assert covered((0.0, 10.0), children) == pytest.approx(6.0)
    assert self_time((0.0, 10.0), children) == pytest.approx(4.0)


def test_self_time_without_children_is_duration():
    assert self_time((2.0, 7.5), []) == pytest.approx(5.5)


def test_children_outside_parent_do_not_count():
    assert self_time((0.0, 1.0), [(2.0, 3.0), (-2.0, -1.0)]) == pytest.approx(1.0)


def _span(name, start, end, parent=None):
    span = Span(name, start, parent, 1)
    span.end = end
    if parent is not None:
        parent.children.append(span)
    return span


def test_request_time_splits_into_layers_queue_and_the_rest():
    root = _span("serve.request", 0.0, 10.0)
    _span("serve.submit", 0.5, 1.0, root)
    answer = _span("serve.answer", 1.5, 9.0, root)
    reasoner = _span("reasoner.deep", 2.0, 8.0, answer)
    _span("warehouse.get_run", 2.5, 4.0, reasoner)
    _span("composite.build", 4.0, 6.0, reasoner)
    layers, queue, rest = breakdown(root)
    assert layers == pytest.approx({
        "serve": 2.0, "reasoner": 2.5, "warehouse": 1.5, "composite": 2.0,
    })
    assert (queue, rest) == pytest.approx((0.5, 1.5))
    assert sum(layers.values()) + queue + rest == pytest.approx(root.duration)


def test_recorder_joins_worker_spans_to_the_client_request():
    recorder = Recorder()
    token = object()

    def worker():
        with recorder.span("serve.answer", request=token):
            with recorder.span("reasoner.deep"):
                pass

    with recorder.span("serve.request") as root:
        recorder.own(token, root)
        thread = threading.Thread(target=worker)
        thread.start()
        thread.join(timeout=10)
    assert not thread.is_alive()
    recorder.resolve()
    assert recorder.roots() == [root]
    (answer,) = root.children
    assert answer.name == "serve.answer"
    assert [child.name for child in answer.children] == ["reasoner.deep"]
    assert {span.request for span in recorder.spans} == {root.request}


# ----------------------------------------------------------------------
# failed_ratio accounting
# ----------------------------------------------------------------------


def test_tally_counts_failures_against_attempts():
    tally = Tally()
    tally.attempt(8)
    tally.fail("rejected", "queue full")
    tally.fail("hidden_data")
    assert (tally.attempted, tally.failed) == (8, 2)
    assert tally.failed_ratio == pytest.approx(0.25)
    assert tally.failures == {"rejected": 1, "hidden_data": 1}


def test_wrong_answer_adds_no_attempt():
    tally = Tally()
    tally.attempt(4)
    tally.fail("wrong_answer")
    assert tally.attempted == 4 and tally.failed_ratio == pytest.approx(0.25)


def test_tally_merge_and_empty_ratio():
    assert Tally().failed_ratio == 0.0
    first, second = Tally(), Tally()
    first.attempt(3)
    second.attempt(2)
    second.fail("stream_error")
    first.merge(second)
    assert (first.attempted, first.failed) == (5, 1)


# ----------------------------------------------------------------------
# Determinism of the seeded inputs
# ----------------------------------------------------------------------


def _catalog():
    runs = []
    for number, kind in enumerate(["small", "medium", "large"] * 3):
        visible = {
            "UAdmin": ["d%d" % i for i in range(10 + number)],
            "UBio": ["d%d" % i for i in range(0, 10 + number, 2)],
            "UBlackBox": ["d0", "d1"],
        }
        runs.append(RunInput(
            run_id="wf/run%d" % number, kind=kind, simulation=None,
            streamed=False, views={}, visible=visible,
        ))
    return runs


@pytest.mark.parametrize("zipf", [1.0, None])
def test_one_seed_one_request_sequence(zipf):
    first = RequestStream(7, _catalog(), zipf=zipf)
    second = RequestStream(7, _catalog(), zipf=zipf)
    assert [first.next() for _ in range(500)] == [second.next() for _ in range(500)]
    other = RequestStream(8, _catalog(), zipf=zipf)
    assert [other.next() for _ in range(50)] != [
        RequestStream(7, _catalog(), zipf=zipf).next() for _ in range(50)
    ]


def test_requests_name_only_visible_data():
    catalog = {run.run_id: run for run in _catalog()}
    stream = RequestStream(11, list(catalog.values()), zipf=1.0)
    kinds = set()
    for _ in range(2000):
        request = stream.next()
        kinds.add(request.kind)
        if request.kind == "zoom":
            assert request.data_id is None
        else:
            assert request.data_id in catalog[request.run_id].visible[request.view]
    assert kinds == {"deep", "reverse", "zoom"}


def test_zipf_hottest_runs_cover_every_kind():
    stream = RequestStream(5, _catalog(), zipf=1.0)
    assert {run.kind for run in stream._runs[:3]} == {"small", "medium", "large"}


def test_window_sends_a_fixed_number_of_requests():
    class Service:
        def submit(self, kind, run_id, data_id=None, view=None):
            future = Future()
            future.set_result(())
            return future

    stack = SimpleNamespace(
        service=Service(), recorder=None, span=lambda _name: contextlib.nullcontext()
    )
    catalog = _catalog()
    for run_input in catalog:
        run_input.views = dict.fromkeys(inputs.VIEW_NAMES)
    outcomes = workloads.closed_loop(
        stack, RequestStream(3, catalog), {r.run_id: r for r in catalog}, 250, 60.0
    )
    assert outcomes.tally.attempted == len(outcomes.latencies) == 250


def test_generated_workloads_repeat_per_seed():
    def shape(seed):
        workflows = inputs.generate_workflows(
            random.Random(seed), "t", per_class=1, plan=lambda _n: (("small",), ("small",))
        )
        return [
            (run.run_id, run.simulation.run.num_steps(), run.visible, len(run.epochs))
            for run in inputs.all_runs(workflows)
        ]

    assert shape(4) == shape(4)
    assert shape(4) != shape(5)


# ----------------------------------------------------------------------
# The reported metrics are the declared ones
# ----------------------------------------------------------------------


def test_run_reports_the_metrics_benchmark_json_names():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as handle:
        declared = json.load(handle)
    assert [(m["name"], m["unit"]) for m in declared["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in declared["per_layer"]] == run.PER_LAYER
    assert [w["name"] for w in declared["workloads"]] == ["session-views", "archive-sweep"]
