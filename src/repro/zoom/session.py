"""Interactive ZOOM sessions: flag modules, view provenance, switch views.

This is the programmatic equivalent of the prototype's UserViewBuilder and
query interface (Section IV): the user flags and unflags modules as
relevant, the view is rebuilt by ``RelevUserViewBuilder`` after every
change, and provenance queries are answered at the granularity of the
current view.  Switching granularity reuses the reasoner's caches, which
is what makes it interactive (the paper's 13 ms average switch).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Set, Tuple

from ..core.builder import RelevUserViewBuilder
from ..core.errors import ViewError
from ..core.spec import WorkflowSpec
from ..core.view import UserView, admin_view
from ..obs import BoundedCache
from ..provenance.reasoner import ProvenanceReasoner
from ..provenance.result import ProvenanceResult, ReverseProvenanceResult
from ..warehouse.base import ProvenanceWarehouse
from .dot import composite_run_to_dot, provenance_to_dot, spec_to_dot


@dataclass(frozen=True)
class WatchUpdate:
    """One observed advance of a streaming run.

    ``final=True`` marks the last update: the producer finalized the run
    and the stored rows are complete.  ``steps`` / ``data_objects`` count
    what the committed prefix makes visible — stale-but-consistent, per
    the streaming protocol's degraded-read guarantee.
    """

    run_id: str
    epoch: int
    steps: int
    data_objects: int
    final: bool


class RunWatch:
    """Follows a streaming run's convergence from the reader's side.

    Built by :meth:`Session.watch`.  Each :meth:`poll` compares the
    warehouse's open-run row against the last epoch seen; when the run
    advanced (or finalized) the session's reasoner is refreshed — caches
    flip to the new generation, persistent indexes survive — and a
    :class:`WatchUpdate` is returned.  ``None`` means nothing changed.
    """

    def __init__(self, session: "Session", run_id: str) -> None:
        self._session = session
        self.run_id = run_id
        self.last_epoch = -1
        self._final_seen = False

    def converged(self) -> bool:
        """True once the run was observed finalized."""
        return self._final_seen

    def poll(self) -> Optional[WatchUpdate]:
        """One non-blocking convergence check; returns the advance, if any."""
        if self._final_seen:
            return None
        warehouse = self._session.warehouse
        state = warehouse.stream_state(self.run_id)
        if state is None:
            # Not open (anymore): either finalized, or it was never a
            # stream.  Both mean the stored rows are complete.
            self._final_seen = True
            epoch = max(self.last_epoch, 0)
            if self.last_epoch >= 0:
                # We saw it open earlier — the finalize is an advance.
                self._session.reasoner.refresh_run(self.run_id)
            return self._update(epoch, final=True)
        if state.epoch == self.last_epoch:
            return None
        self._session.reasoner.refresh_run(self.run_id)
        self.last_epoch = state.epoch
        return self._update(state.epoch, final=False)

    def updates(
        self, interval: float = 0.05, max_polls: int = 10_000
    ) -> Iterator[WatchUpdate]:
        """Yield advances until the run converges (or ``max_polls``)."""
        for _ in range(max_polls):
            update = self.poll()
            if update is not None:
                yield update
                if update.final:
                    return
            else:
                time.sleep(interval)

    def _update(self, epoch: int, final: bool) -> WatchUpdate:
        warehouse = self._session.warehouse
        steps = len(warehouse.steps_of_run(self.run_id))
        data = {d for _s, d, _dir in warehouse.io_rows(self.run_id)}
        data.update(warehouse.user_inputs(self.run_id))
        return WatchUpdate(
            run_id=self.run_id, epoch=epoch, steps=steps,
            data_objects=len(data), final=final,
        )


class Session:
    """One user's view-building and provenance-querying session.

    Parameters
    ----------
    warehouse:
        The provenance warehouse to query.
    spec_id:
        Identifier of the stored specification the session is about.
    user:
        Display name of the user (view names derive from it).
    strategy:
        Reasoner caching strategy — ``"cached"``, ``"uncached"`` or
        ``"labeled"`` (see
        :class:`~repro.provenance.reasoner.ProvenanceReasoner`; the
        labeled strategy serves deep provenance from the warehouse's
        compact reachability labels).
    view_cache_size:
        LRU capacity of the per-relevant-set view memo (the cache that
        makes undo and back-and-forth exploration free).
    """

    def __init__(
        self,
        warehouse: ProvenanceWarehouse,
        spec_id: str,
        user: str = "user",
        strategy: str = "cached",
        view_cache_size: int = 128,
    ) -> None:
        self.warehouse = warehouse
        self.spec_id = spec_id
        self.user = user
        self.spec: WorkflowSpec = warehouse.get_spec(spec_id)
        self.reasoner = ProvenanceReasoner(warehouse, strategy=strategy)
        self._relevant: Set[str] = set()
        self._view: Optional[UserView] = None
        # History of (relevant set, view) pairs; views are also memoised
        # by relevant set so undo and back-and-forth exploration never
        # rebuild (the interactivity of Section IV).  The memo always
        # holds the *latest* view shown for a relevant set — zoom_into,
        # undo and use_view overwrite it — so returning to a relevant set
        # restores exactly what the user last saw there.
        self._view_history: List[Tuple[FrozenSet[str], UserView]] = []
        self._view_cache: BoundedCache[FrozenSet[str], UserView] = BoundedCache(
            view_cache_size, name="views"
        )

    # ------------------------------------------------------------------
    # Relevant-module management
    # ------------------------------------------------------------------

    @property
    def relevant(self) -> FrozenSet[str]:
        """The modules currently flagged as relevant."""
        return frozenset(self._relevant)

    def flag(self, *modules: str) -> UserView:
        """Flag modules as relevant and rebuild the view."""
        for module in modules:
            if module not in self.spec.modules:
                raise ViewError("unknown module %r" % module)
            self._relevant.add(module)
        return self._rebuild()

    def unflag(self, *modules: str) -> UserView:
        """Remove modules from the relevant set and rebuild the view."""
        for module in modules:
            self._relevant.discard(module)
        return self._rebuild()

    def set_relevant(self, modules: Iterable[str]) -> UserView:
        """Replace the relevant set wholesale and rebuild the view."""
        modules = set(modules)
        unknown = modules - self.spec.modules
        if unknown:
            raise ViewError("unknown modules %s" % sorted(unknown))
        self._relevant = modules
        return self._rebuild()

    def _rebuild(self) -> UserView:
        key = frozenset(self._relevant)
        self._view = self._view_cache.get_or_build(
            key,
            lambda: RelevUserViewBuilder(self.spec, self._relevant).build(
                name="%s-view" % self.user
            ),
        )
        self._view_history.append((key, self._view))
        return self._view

    def zoom_into(
        self, composite: str, relevant_within: Iterable[str]
    ) -> UserView:
        """Refine one composite of the current view by zooming into it.

        The paper's composition mechanism: the composite's members are
        treated as a sub-workflow and partitioned around the newly flagged
        modules; the overall relevant set grows accordingly, so further
        flags/unflags continue from the refined state.
        """
        from ..core.hierarchy import refine_composite

        refined = refine_composite(
            self.view, composite, relevant_within,
            name="%s-view" % self.user,
        )
        self._relevant |= set(relevant_within)
        key = frozenset(self._relevant)
        self._view = refined
        # Overwrite, never setdefault: a builder-built view cached earlier
        # for the same relevant set must not shadow the refinement, or
        # flagging away and back would silently discard it.
        self._view_cache.put(key, refined)
        self._view_history.append((key, refined))
        return refined

    def undo(self) -> UserView:
        """Return to the previous view state (no-op at the first one).

        The prototype rebuilds the view on every flag/unflag; undo walks
        that history backwards, restoring memoised views so stepping back
        and forth costs nothing.
        """
        if len(self._view_history) >= 2:
            self._view_history.pop()
            key, view = self._view_history[-1]
            self._relevant = set(key)
            self._view = view
            # Re-sync the memo: the restored view is again the one the
            # user sees for this relevant set.
            self._view_cache.put(key, view)
        return self.view

    @property
    def view(self) -> UserView:
        """The current user view (UAdmin before anything is flagged)."""
        if self._view is None:
            return admin_view(self.spec)
        return self._view

    def use_view(self, view: UserView) -> UserView:
        """Adopt an existing view (e.g. one loaded from the warehouse).

        The relevant set is cleared — the adopted view supersedes whatever
        was flagged; flagging a module afterwards rebuilds from scratch.
        """
        if view.spec != self.spec:
            raise ViewError(
                "view %r does not match this session's specification" % view.name
            )
        self._relevant = set()
        self._view = view
        # The adopted view is what an empty relevant set now shows, so a
        # no-op unflag cannot silently swap it for a freshly built one.
        self._view_cache.put(frozenset(), view)
        self._view_history.append((frozenset(), view))
        return view

    def view_history(self) -> List[FrozenSet[str]]:
        """Relevant sets of every rebuild, in order (undo walks these)."""
        return [key for key, _view in self._view_history]

    def save_view(self, view_id: Optional[str] = None) -> str:
        """Persist the current view definition in the warehouse."""
        identifier = view_id or "%s/%s" % (self.spec_id, self.view.name)
        return self.warehouse.store_view(self.view, self.spec_id, view_id=identifier)

    def invalidate_run(self, run_id: str) -> None:
        """Drop every cache layer's state for one run.

        Fans out through the reasoner (runs, composites, closures, the
        persistent label index) and from there to any registered
        invalidation listener — a :class:`~repro.serve.QueryService`
        sharing this session's reasoner drops its per-view result cache in
        the same stroke.  Call after the warehouse rows of ``run_id``
        change (re-ingestion, annotation rewrites, streaming appends).
        """
        self.reasoner.invalidate_run(run_id)

    def refresh_run(self, run_id: str) -> None:
        """Flip one run's cached state after a streamed epoch extended it.

        Unlike :meth:`invalidate_run`, the run's persistent label index
        survives — the streaming ingestor already advanced it
        incrementally; only the in-process memos go stale.
        """
        self.reasoner.refresh_run(run_id)

    def watch(self, run_id: str) -> RunWatch:
        """Follow a streaming run's convergence (see :class:`RunWatch`).

        Each observed epoch advance refreshes this session's reasoner, so
        queries in between serve the committed prefix — stale, never
        torn.  The watch ends when the producer finalizes the run.
        """
        return RunWatch(self, run_id)

    def serve(self, **kwargs) -> "object":
        """A :class:`~repro.serve.QueryService` sharing this session's reasoner.

        Queries answered by the service and by this session hit the same
        run/composite/closure caches, and :meth:`invalidate_run` on either
        side invalidates both.  Keyword arguments pass through to the
        service constructor (``workers``, ``queue_size``, ...).  The
        service is returned unstarted — use it as a context manager.
        """
        from ..serve import QueryService

        return QueryService(self.warehouse, reasoner=self.reasoner, **kwargs)

    def build_index(self, run_id: str, rebuild: bool = False) -> int:
        """Materialise a run's reachability labels in the warehouse.

        Returns the number of label rows stored.  The ``labeled`` strategy
        would otherwise build them lazily on the run's first query.
        """
        return self.warehouse.build_label_index(run_id, rebuild=rebuild)

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------

    def stats(self) -> Dict[str, Dict[str, object]]:
        """Per-cache hit/miss/eviction/size counters for this session.

        Combines the session's view memo (``views``) with the reasoner's
        caches (``runs``, ``composites``, ``closures``); the mapping feeds
        straight into :func:`repro.obs.format_stats`.
        """
        combined: Dict[str, Dict[str, object]] = {
            self._view_cache.name: self._view_cache.stats().as_dict()
        }
        combined.update(self.reasoner.stats())
        return combined

    def lint(self, check_minimality: bool = True):
        """Audit the session's spec and active view; returns a lint report.

        The view is checked against the *current* relevant set, so the
        report says whether what the user is looking at still satisfies
        Properties 1–3 (and, by default, minimality) for what they
        flagged.  Diagnostics are collected, never raised — inspect the
        returned :class:`~repro.lint.findings.LintReport`.
        """
        from ..lint import Linter

        linter = Linter(check_minimality=check_minimality)
        report = linter.lint_spec(self.spec)
        report.merge(linter.lint_view(self.view, relevant=self.relevant))
        return report

    # ------------------------------------------------------------------
    # Provenance queries at the current granularity
    # ------------------------------------------------------------------

    def deep_provenance(self, run_id: str, data_id: str) -> ProvenanceResult:
        """Deep provenance of ``data_id`` under the current view."""
        return self.reasoner.deep(run_id, data_id, view=self.view)

    def immediate_provenance(self, run_id: str, data_id: str) -> ProvenanceResult:
        """Immediate provenance of ``data_id`` under the current view."""
        return self.reasoner.immediate(run_id, data_id, view=self.view)

    def derived_from(self, run_id: str, data_id: str) -> ReverseProvenanceResult:
        """Everything derived from ``data_id`` under the current view."""
        return self.reasoner.reverse(run_id, data_id, view=self.view)

    def final_output_provenance(self, run_id: str) -> ProvenanceResult:
        """Deep provenance of the run's final output (the showcase query)."""
        return self.reasoner.final_output_deep(run_id, view=self.view)

    def visible_data(self, run_id: str) -> Set[str]:
        """Data objects observable in a run under the current view."""
        return self.reasoner.composite_run(run_id, self.view).visible_data()

    def how(self, run_id: str, source: str, target: str):
        """The shortest derivation chain from ``source`` to ``target``.

        Answers "how did this object end up in that result?" at the
        current granularity; returns ``None`` when no chain exists.
        """
        from ..provenance.derivation import shortest_derivation

        composite = self.reasoner.composite_run(run_id, self.view)
        return shortest_derivation(composite, source, target)

    def data_between(self, run_id: str, src: str, dst: str) -> FrozenSet[str]:
        """Data passed between two visible steps (the click-an-edge query)."""
        return self.reasoner.composite_run(run_id, self.view).edge_data(src, dst)

    # ------------------------------------------------------------------
    # Display
    # ------------------------------------------------------------------

    def render_spec(self) -> str:
        """DOT rendering of the specification with the current grouping."""
        return spec_to_dot(self.spec, relevant=self._relevant, view=self.view)

    def render_run(self, run_id: str) -> str:
        """DOT rendering of a run at the current granularity."""
        return composite_run_to_dot(self.reasoner.composite_run(run_id, self.view))

    def render_provenance(self, run_id: str, data_id: str) -> str:
        """DOT rendering of a deep-provenance answer (the Fig. 9 display)."""
        result = self.deep_provenance(run_id, data_id)
        composite = self.reasoner.composite_run(run_id, self.view)
        return provenance_to_dot(result, composite)
