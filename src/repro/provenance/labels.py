"""Compact reachability labels: deep provenance without materialised pairs.

A materialised lineage closure answers deep provenance in one range scan,
but it stores O(reachable-pairs) rows per run — quadratic on deep chains.
Bao & Davidson's *Labeling Workflow Views with Fine-Grained
Dependencies* shows the fix for this graph class: give every node a
compact label such that reachability is decided from the labels alone,
and the index shrinks from O(V·E) rows to O(V).

This module implements the hybrid (tree + remainder) encoding of that
line of work over the **step DAG** of one run:

* pick a spanning forest — each step's tree parent is its
  lexicographically smallest upstream step, so the forest is a pure
  function of the rows (deterministic across backends and rebuilds);
* one DFS over the forest assigns every step an interval ``[pre, post]``;
  ``a`` reaches ``b`` through tree edges iff ``pre(a) <= pre(b)`` and
  ``post(b) <= post(a)`` — an O(1) test;
* the few non-tree edges survive as each step's *remainder set* (its
  other direct upstream steps).  Parent plus remainder together are
  exactly the step's direct predecessors, so an upward traversal over
  them enumerates a step's full ancestor set in O(ancestors + their
  edges) — never touching the rest of the run.

One label row per step, computed in one topological pass
(:func:`labels_from_rows`), persisted by both warehouse backends
(``lineage_labels`` table in SQLite, a frozen :class:`LineageLabels` in
memory) and served through ``label_lookup`` — the index behind the
reasoner's ``strategy="labeled"``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
from ..core.spec import INPUT
from .result import ProvenanceResult, ProvenanceRow

if TYPE_CHECKING:  # pragma: no cover — annotation-only imports
    from ..warehouse.base import ProvenanceWarehouse

#: Version stamp persisted with every label index (``labels_meta`` row in
#: SQLite, ``LineageLabels.version`` in memory).  Bump it when the
#: encoding changes; lint rule ``WH043`` flags stored labels whose version
#: differs from the code's.
LABELS_VERSION = 1


@dataclass
class LineageLabels:
    """The reachability labels of one run, ready to persist.

    One label per *step* — data objects resolve through ``producer`` —
    so the whole structure is O(V + E) where the closure is O(V·E).

    Attributes
    ----------
    run_id:
        The run the labels describe.
    version:
        The :data:`LABELS_VERSION` the labels were computed under.
    modules:
        ``step_id -> module`` for every step of the run.
    step_inputs:
        ``step_id -> sorted input data ids`` (the row expansion of a
        provenance answer).
    producer:
        ``data_id -> producing step`` (:data:`~repro.core.spec.INPUT`
        for user inputs).
    user_inputs:
        The run's user-supplied data objects.
    parent:
        ``step_id -> tree parent`` in the spanning forest (``None`` for
        roots): the lexicographically smallest direct upstream step.
    intervals:
        ``step_id -> (pre, post)`` DFS interval over the forest.
    remainder:
        ``step_id -> sorted non-tree direct upstream steps``.
    """

    run_id: str
    version: int = LABELS_VERSION
    modules: Dict[str, str] = field(default_factory=dict)
    step_inputs: Dict[str, Tuple[str, ...]] = field(default_factory=dict)
    producer: Dict[str, str] = field(default_factory=dict)
    user_inputs: FrozenSet[str] = frozenset()
    parent: Dict[str, Optional[str]] = field(default_factory=dict)
    intervals: Dict[str, Tuple[int, int]] = field(default_factory=dict)
    remainder: Dict[str, Tuple[str, ...]] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Reachability primitives
    # ------------------------------------------------------------------

    def _require_step(self, step_id: str) -> None:
        if step_id not in self.intervals:
            raise WarehouseError(
                "step %r carries no label in run %r" % (step_id, self.run_id)
            )

    def _upstream(self, step_id: str) -> Iterator[str]:
        """Direct predecessors: the tree parent plus the remainder set."""
        source = self.parent[step_id]
        if source is not None:
            yield source
        yield from self.remainder[step_id]

    def reaches(self, a: str, b: str) -> bool:
        """Does step ``a`` reach step ``b`` along dataflow edges?

        Reflexive (``reaches(s, s)`` is true).  Tree descendants answer in
        O(1) from the intervals; otherwise an upward traversal from ``b``
        prunes whole subtrees with the same interval test.
        """
        self._require_step(a)
        self._require_step(b)
        if a == b:
            return True
        pre_a, post_a = self.intervals[a]
        seen: Set[str] = set()
        stack: List[str] = [b]
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            pre, post = self.intervals[current]
            if pre_a <= pre and post <= post_a:
                return True  # a tree-ancestor of ``current``
            stack.extend(self._upstream(current))
        return False

    def ancestors_of(self, step_id: str) -> FrozenSet[str]:
        """Every step strictly upstream of ``step_id`` (excluding it)."""
        self._require_step(step_id)
        seen: Set[str] = set()
        stack: List[str] = list(self._upstream(step_id))
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            stack.extend(self._upstream(current))
        return frozenset(seen)

    # ------------------------------------------------------------------
    # Deep-provenance answers (parity with the recursive closure)
    # ------------------------------------------------------------------

    def data_ids(self) -> List[str]:
        """Every data object the labels cover, sorted."""
        return sorted(self.producer)

    def lineage_steps_of(self, data_id: str) -> FrozenSet[str]:
        """The ancestor-step set of one data object."""
        try:
            source = self.producer[data_id]
        except KeyError:
            raise WarehouseError(
                "data %r is not covered by the lineage labels of run %r"
                % (data_id, self.run_id)
            ) from None
        if source == INPUT:
            return frozenset()
        return self.ancestors_of(source) | {source}

    def lineage_inputs_of(self, data_id: str) -> FrozenSet[str]:
        """The lineage user inputs of one data object.

        Not stored: a user input is in the lineage exactly when some
        ancestor step reads it directly, so the set is derived from the
        ancestor steps' input lists.
        """
        if data_id in self.user_inputs:
            return frozenset([data_id])
        found: Set[str] = set()
        for step_id in self.lineage_steps_of(data_id):
            for data_in in self.step_inputs[step_id]:
                if data_in in self.user_inputs:
                    found.add(data_in)
        return frozenset(found)

    def result_for(self, data_id: str) -> ProvenanceResult:
        """Materialise the deep provenance of one object as a query answer.

        Row-identical to what ``admin_deep_provenance`` computes by
        recursion: one row per (ancestor step, that step's input) pair.
        """
        steps = self.lineage_steps_of(data_id)
        result = ProvenanceResult(target=data_id, view_name="UAdmin")
        user_inputs: Set[str] = set()
        for step_id in sorted(steps):
            module = self.modules[step_id]
            for data_in in self.step_inputs[step_id]:
                result.rows.append(
                    ProvenanceRow(step_id=step_id, module=module, data_in=data_in)
                )
                if data_in in self.user_inputs:
                    user_inputs.add(data_in)
        if data_id in self.user_inputs:
            user_inputs.add(data_id)
        result.user_inputs = user_inputs
        return result

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------

    def iter_table_rows(self) -> Iterator[Tuple[str, int, int, str, str]]:
        """Flatten to ``(step_id, pre, post, parent, remainder)`` rows.

        The canonical persisted shape on both backends: roots store an
        empty-string parent, the remainder set is space-joined (step ids
        never contain spaces — the run grammar forbids them).
        """
        for step_id in sorted(self.intervals):
            pre, post = self.intervals[step_id]
            yield (
                step_id,
                pre,
                post,
                self.parent[step_id] or "",
                " ".join(self.remainder[step_id]),
            )

    def num_rows(self) -> int:
        """Number of relational rows the labels materialise to: one per step."""
        return len(self.intervals)


def labels_from_rows(
    run_id: str,
    steps: Sequence[Tuple[str, str]],
    io_rows: Sequence[Tuple[str, str, str]],
    user_inputs: Sequence[str],
) -> LineageLabels:
    """Compute the reachability labels of one run from its relational rows.

    One topological pass.  Rows no valid run can produce (multiple
    producers, reads of unproduced data, cycles) raise
    :class:`~repro.core.errors.WarehouseError`.
    """
    from ..warehouse.schema import DIR_OUT

    modules: Dict[str, str] = dict(steps)
    producer: Dict[str, str] = {d: INPUT for d in user_inputs}
    inputs: Dict[str, List[str]] = {step_id: [] for step_id in modules}
    for step_id, data_id, direction in io_rows:
        if step_id not in modules:
            raise WarehouseError(
                "io row (%r, %r) references an undeclared step" % (step_id, data_id)
            )
        if direction == DIR_OUT:
            if data_id in producer and producer[data_id] != step_id:
                raise WarehouseError(
                    "data %r written by both %r and %r"
                    % (data_id, producer[data_id], step_id)
                )
            producer[data_id] = step_id
        else:
            inputs[step_id].append(data_id)

    labels = LineageLabels(
        run_id=run_id,
        modules=modules,
        producer=producer,
        user_inputs=frozenset(user_inputs),
    )
    for step_id in modules:
        labels.step_inputs[step_id] = tuple(sorted(set(inputs[step_id])))

    upstream: Dict[str, Set[str]] = {}
    downstream: Dict[str, Set[str]] = {s: set() for s in modules}
    for step_id in modules:
        sources: Set[str] = set()
        for data_id in labels.step_inputs[step_id]:
            source = producer.get(data_id)
            if source is None:
                raise WarehouseError(
                    "step %r read %r which nothing produced" % (step_id, data_id)
                )
            if source != INPUT and source != step_id:
                sources.add(source)
        upstream[step_id] = sources
        for source in sources:
            downstream[source].add(step_id)

    # Kahn sweep purely for acyclicity: a cyclic step can still hang off
    # an acyclic tree parent, so forest construction alone cannot tell.
    pending = {s: len(upstream[s]) for s in modules}
    frontier = [s for s, count in pending.items() if count == 0]
    ordered = 0
    while frontier:
        step_id = frontier.pop()
        ordered += 1
        for successor in downstream[step_id]:
            pending[successor] -= 1
            if pending[successor] == 0:
                frontier.append(successor)
    if ordered != len(modules):
        raise WarehouseError(
            "run %r has a cyclic io dependency; cannot label its lineage"
            % run_id
        )

    # Spanning forest: tree parent = smallest direct upstream step, the
    # rest of the predecessors become the remainder set.
    tree_children: Dict[str, List[str]] = {step_id: [] for step_id in modules}
    for step_id in modules:
        sources = upstream[step_id]
        if sources:
            tree_parent: Optional[str] = min(sources)
            tree_children[tree_parent].append(step_id)
            labels.remainder[step_id] = tuple(
                sorted(sources - {tree_parent})
            )
        else:
            tree_parent = None
            labels.remainder[step_id] = ()
        labels.parent[step_id] = tree_parent
    for step_id in tree_children:
        tree_children[step_id].sort()

    # One DFS over the forest assigns the intervals; visiting roots and
    # children in sorted order makes the numbering deterministic.
    clock = 0
    roots = sorted(s for s in modules if labels.parent[s] is None)
    for root in roots:
        stack: List[Tuple[str, Iterator[str]]] = [
            (root, iter(tree_children[root]))
        ]
        pre_of: Dict[str, int] = {root: clock}
        clock += 1
        while stack:
            node, children = stack[-1]
            child = next(children, None)
            if child is None:
                labels.intervals[node] = (pre_of[node], clock)
                clock += 1
                stack.pop()
            else:
                pre_of[child] = clock
                clock += 1
                stack.append((child, iter(tree_children[child])))

    return labels


def compute_lineage_labels(
    warehouse: "ProvenanceWarehouse", run_id: str
) -> LineageLabels:
    """Compute a stored run's reachability labels from its warehouse rows."""
    return labels_from_rows(
        run_id,
        warehouse.steps_of_run(run_id),
        warehouse.io_rows(run_id),
        sorted(warehouse.user_inputs(run_id)),
    )


def labels_from_stored(
    run_id: str,
    label_rows: Sequence[Tuple[str, int, int, str, str]],
    steps: Sequence[Tuple[str, str]],
    io_rows: Sequence[Tuple[str, str, str]],
    user_inputs: Sequence[str],
    version: int = LABELS_VERSION,
) -> LineageLabels:
    """Rehydrate :class:`LineageLabels` from persisted label rows.

    The inverse of :meth:`LineageLabels.iter_table_rows`, joined back with
    the run's base rows (steps, io, user inputs) which the labels resolve
    through.  No validation — the rows were validated when the labels were
    built; lint rule ``WH043`` audits drift after the fact.
    """
    from ..warehouse.schema import DIR_OUT

    labels = LineageLabels(
        run_id=run_id,
        version=version,
        modules=dict(steps),
        user_inputs=frozenset(user_inputs),
    )
    labels.producer = {d: INPUT for d in user_inputs}
    inputs: Dict[str, List[str]] = {s: [] for s in labels.modules}
    for step_id, data_id, direction in io_rows:
        if direction == DIR_OUT:
            labels.producer[data_id] = step_id
        elif step_id in inputs:
            inputs[step_id].append(data_id)
    for step_id in labels.modules:
        labels.step_inputs[step_id] = tuple(sorted(set(inputs[step_id])))
    for step_id, pre, post, tree_parent, remainder in label_rows:
        labels.parent[step_id] = tree_parent or None
        labels.intervals[step_id] = (pre, post)
        labels.remainder[step_id] = (
            tuple(remainder.split(" ")) if remainder else ()
        )
    return labels


def label_table_rows(
    run_id: str,
    steps: Sequence[Tuple[str, str]],
    io_rows: Sequence[Tuple[str, str, str]],
    user_inputs: Sequence[str],
) -> Set[Tuple[str, int, int, str, str]]:
    """The relational rows a fresh labelling of these run rows would hold.

    Used by lint rule ``WH043`` to detect a stale label index: whatever a
    backend stores must equal this set exactly (the forest and the DFS
    order are deterministic functions of the rows).
    """
    return set(
        labels_from_rows(run_id, steps, io_rows, user_inputs).iter_table_rows()
    )
