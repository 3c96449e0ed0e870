"""Project view-level deep provenance from UAdmin closures.

The paper's response-time experiment (Section V-B) is dominated by the
recursive closure — Oracle ``CONNECT BY`` there, a SQLite recursive CTE or
BFS here — and its winning strategy amortises that cost by computing UAdmin
provenance once per run and projecting view-level answers from it.

:func:`project_closure` is that projection: given a (cached)
:class:`~repro.core.composite.CompositeRun` and an accessor for UAdmin
closures (the reachability labels of :mod:`repro.provenance.labels`), it
answers a *view-level* deep-provenance query by folding whole admin
closures into the induced run — provably equal to the reference BFS of
:func:`~repro.provenance.queries.deep_provenance`, but jumping an entire
admin lineage per lookup instead of walking edge by edge.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Callable, Deque, Set

from ..core.errors import HiddenDataError
from ..core.spec import INPUT
from .result import ProvenanceResult, ProvenanceRow

if TYPE_CHECKING:  # pragma: no cover — annotation-only imports
    from ..core.composite import CompositeRun


def project_closure(
    composite_run: "CompositeRun",
    admin_lookup: Callable[[str], ProvenanceResult],
    data_id: str,
) -> ProvenanceResult:
    """Deep provenance under a view, projected from UAdmin closures.

    ``admin_lookup`` must return the UAdmin deep provenance of a data
    object (typically a memoised label lookup).  The projection folds
    whole admin closures into the induced run: every ancestor step maps to
    its virtual step, and — because composite executions can pull in data
    that is *not* in the target's admin lineage (a merged step's other
    inputs) — the fold iterates until no virtual step adds new visible
    inputs.  The fixpoint equals the reference BFS of
    :func:`~repro.provenance.queries.deep_provenance` row for row.
    """
    if not composite_run.is_visible(data_id):
        raise HiddenDataError(
            "data %r is internal to a composite execution under view %r"
            % (data_id, composite_run.view.name)
        )
    result = ProvenanceResult(
        target=data_id, view_name=composite_run.view.name
    )
    reached: Set[str] = set()
    seen_data: Set[str] = set()
    frontier: Deque[str] = deque([data_id])
    while frontier:
        current = frontier.popleft()
        if current in seen_data:
            continue
        seen_data.add(current)
        virtual_producer = composite_run.producer(current)
        if virtual_producer == INPUT:
            result.user_inputs.add(current)
            continue
        if virtual_producer in reached:
            continue
        # One lookup covers the whole admin lineage of ``current``;
        # every ancestor's virtual step joins in a single stroke.
        admin = admin_lookup(current)
        fresh = {composite_run.group_of(s) for s in admin.steps()}
        fresh.add(virtual_producer)
        fresh -= reached
        reached |= fresh
        for virtual_step in fresh:
            frontier.extend(composite_run.inputs_of(virtual_step))
    for virtual_step in sorted(reached):
        composite = composite_run.composite_step(virtual_step).composite
        for data_in in sorted(composite_run.inputs_of(virtual_step)):
            result.rows.append(
                ProvenanceRow(
                    step_id=virtual_step, module=composite, data_in=data_in
                )
            )
    return result
