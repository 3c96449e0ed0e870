"""Workload inputs: workflows, runs, views and request sequences.

The program receives only what is generated here; no seed reaches it.
Generation goes through the program's own public generators
(``repro.workloads``).  Each workload's archive — its specifications,
runs and event logs — comes from the fixed :data:`ARCHIVE_SEED`, so every
run measures the same archive; ``--seed`` drives everything drawn at run
time: the request sequence and the checked sample.
With archives this small, an archive drawn per seed changes the largest
runs, and the largest runs set every tail: figures from different seeds
disagreed by more than any change a later commit would make.
"""

from __future__ import annotations

import bisect
import itertools
import json
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.builder import build_user_view
from repro.core.composite import CompositeRun
from repro.core.view import UserView, admin_view, blackbox_view
from repro.run.executor import SimulationResult
from repro.run.log import log_from_run
from repro.warehouse.streaming import chunk_log
from repro.workloads.classes import RUN_CLASSES, WORKFLOW_CLASSES
from repro.workloads.generator import GeneratedWorkflow, generate_workflow
from repro.workloads.runs import generate_run

#: Seed of every workload's archive (the paper's conference date).
ARCHIVE_SEED = 20080407

#: The three views of every workflow; ``UAdmin`` is passed as ``None``,
#: which is how the reasoner's closure path is reached.
VIEW_NAMES = ("UAdmin", "UBio", "UBlackBox")

#: Request mix: deep, reverse and zoom shares.
MIX = (("deep", 0.5), ("reverse", 0.2), ("zoom", 0.3))
_MIX_CUM = list(itertools.accumulate(share for _kind, share in MIX))

#: Share of requests whose answers are kept for the answer check.
SAMPLE_RATE = 0.01

#: Events per streamed epoch (``chunk_log`` packs whole step blocks).
EPOCH_EVENTS = 16


def request_kind(u: float) -> str:
    """The request kind a uniform draw ``u`` in [0, 1) falls on under :data:`MIX`."""
    return MIX[min(bisect.bisect(_MIX_CUM, u), len(MIX) - 1)][0]


@dataclass
class RunInput:
    """One run to ingest, with what requests need to know about it."""

    run_id: str
    kind: str
    #: The generated run, loaded again by every round's set-up.
    simulation: Optional[SimulationResult]
    streamed: bool
    views: Dict[str, Optional[UserView]]
    #: Sorted data ids visible under each view name.
    visible: Dict[str, List[str]] = field(default_factory=dict)
    #: Epochs for the streaming ingestor (streamed runs only).
    epochs: List[list] = field(default_factory=list)


@dataclass
class Workflow:
    generated: GeneratedWorkflow
    views: Dict[str, Optional[UserView]]
    loaded: List[RunInput] = field(default_factory=list)
    streamed: List[RunInput] = field(default_factory=list)


def workflow_views(generated: GeneratedWorkflow) -> Dict[str, Optional[UserView]]:
    spec = generated.spec
    return {
        "UAdmin": None,
        "UBio": build_user_view(spec, generated.suggested_relevant, name="UBio"),
        "UBlackBox": blackbox_view(spec),
    }


def visible_data(run: SimulationResult, views: Dict[str, Optional[UserView]]) -> Dict[str, List[str]]:
    """Data a request may name under each view (hidden data excluded)."""
    out = {}
    for name, view in views.items():
        composite = CompositeRun(run.run, view or admin_view(run.run.spec))
        out[name] = sorted(composite.visible_data())
    return out


#: Run kinds of one workflow: (batch-loaded kinds, streamed kinds).
RunPlan = Tuple[Sequence[str], Sequence[str]]


def generate_workflows(
    rng: random.Random,
    tag: str,
    per_class: int,
    plan: Callable[[int], RunPlan],
) -> List[Workflow]:
    """``per_class`` workflows of each of the four classes, with their runs.

    ``plan(number)`` gives the kinds of runs workflow ``number`` (1-based,
    per class) batch-loads and streams.  Loaded runs are ``<spec>/run<N>``
    (the pipeline's naming), streamed runs ``<spec>/live<N>``.
    """
    workflows = []
    for class_name, workflow_class in sorted(WORKFLOW_CLASSES.items()):
        for number in range(1, per_class + 1):
            generated = generate_workflow(
                workflow_class, rng, name="%s-%s%d" % (class_name, tag, number)
            )
            views = workflow_views(generated)
            workflow = Workflow(generated=generated, views=views)
            loaded_kinds, streamed_kinds = plan(number)
            for streamed, kinds, runs in (
                (False, loaded_kinds, workflow.loaded),
                (True, streamed_kinds, workflow.streamed),
            ):
                for index, kind in enumerate(kinds, start=1):
                    simulation = generate_run(generated.spec, RUN_CLASSES[kind], rng)
                    runs.append(RunInput(
                        run_id="%s/%s%d" % (
                            generated.spec.name, "live" if streamed else "run", index
                        ),
                        kind=kind, simulation=simulation, streamed=streamed,
                        views=views, visible=visible_data(simulation, views),
                        epochs=(
                            chunk_log(log_from_run(simulation.run), EPOCH_EVENTS)
                            if streamed else []
                        ),
                    ))
            workflows.append(workflow)
    return workflows


def pipeline_items(workflows: Sequence[Workflow]) -> List[Tuple[object, List[SimulationResult]]]:
    """``ingest_dataset`` input: every spec, with its batch-loaded runs."""
    return [
        (w.generated.spec, [run.simulation for run in w.loaded]) for w in workflows
    ]


def all_runs(workflows: Sequence[Workflow]) -> List[RunInput]:
    return [run for w in workflows for run in w.loaded + w.streamed]


@dataclass(frozen=True)
class Request:
    index: int
    kind: str
    run_id: str
    data_id: Optional[str]
    view: str
    #: Part of the seeded sample whose answers are checked afterwards.
    sampled: bool


class RequestStream:
    """A deterministic, endless request sequence over a set of runs.

    Runs are drawn Zipf-skewed (exponent ``zipf``) or uniformly
    (``zipf=None``).  Zipf ranks interleave the run kinds in catalog
    order, so the hottest runs are one of each kind and do not change
    with the seed.  The request kind follows :data:`MIX`,
    the view is uniform, and deep/reverse data is drawn uniformly from
    what is visible under the chosen view — so no request names hidden
    data.  A second generator picks the checked sample, so the sample
    rate never changes the sequence.
    """

    def __init__(
        self, seed: int, runs: Sequence[RunInput], zipf: Optional[float] = None
    ) -> None:
        self._rng = random.Random(seed)
        self._sampler = random.Random(seed ^ 0x5EED)
        by_kind: Dict[str, List[RunInput]] = {}
        for run in runs:
            by_kind.setdefault(run.kind, []).append(run)
        groups = [by_kind[kind] for kind in sorted(by_kind)]
        self._runs = [
            run for rank in itertools.zip_longest(*groups) for run in rank if run is not None
        ]
        self._cum = list(itertools.accumulate(
            1.0 if zipf is None else 1.0 / rank ** zipf
            for rank in range(1, len(self._runs) + 1)
        ))
        self._count = 0

    def next(self) -> Request:
        rng = self._rng
        run = self._runs[bisect.bisect(self._cum, rng.random() * self._cum[-1])]
        kind = request_kind(rng.random())
        view = VIEW_NAMES[rng.randrange(len(VIEW_NAMES))]
        data_id = None
        if kind != "zoom":
            visible = run.visible[view]
            data_id = visible[rng.randrange(len(visible))]
        request = Request(
            index=self._count, kind=kind, run_id=run.run_id, data_id=data_id,
            view=view, sampled=self._sampler.random() < SAMPLE_RATE,
        )
        self._count += 1
        return request


def canonical(answer: object) -> bytes:
    """The bytes two equal answers share: sorted, view-named, JSON."""
    if isinstance(answer, tuple):
        body: object = list(answer)
    elif hasattr(answer, "target"):
        body = {
            "target": answer.target,
            "view": answer.view_name,
            "rows": sorted([r.step_id, r.module, r.data_in] for r in answer.rows),
            "user_inputs": sorted(answer.user_inputs),
        }
    else:
        body = {
            "source": answer.source,
            "view": answer.view_name,
            "rows": sorted([r.step_id, r.module, r.data_in] for r in answer.rows),
            "derived": sorted(answer.derived),
            "final_outputs": sorted(answer.final_outputs),
        }
    return json.dumps(body, sort_keys=True).encode()
