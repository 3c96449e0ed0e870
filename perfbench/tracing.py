"""Spans recorded from the benchmark's own files, around calls into layers.

The program is not instrumented.  A traced run instead wraps the objects
that cross layer boundaries, and binds timing wrappers over the layers the
reasoner builds internally:

* :class:`Traced` proxies the warehouse handed to the reasoner and the
  ingestors (layer ``warehouse``, journal calls as layer ``ingest``) and
  the reasoner handed to ``QueryService`` (layer ``reasoner``);
* :func:`patched_internals` rebinds ``CompositeRun``, ``deep_provenance``
  and ``reverse_provenance`` inside ``repro.provenance.reasoner`` for the
  duration of the traced run (layers ``composite`` and ``queries``);
* :func:`trace_service` wraps the service's per-request handler, the one
  place a request crosses from the queue into a worker thread, so worker
  spans join the client's request.

Spans (name, start, end, parent, request) stay in memory; the benchmark
writes them out when it ends.  Untraced runs use plain objects throughout.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import threading
import time
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from stats import self_time

#: Warehouse methods whose time belongs to the ingest journal, not storage.
JOURNAL_METHODS = frozenset({"journal_begin", "journal_commit", "journal_discard"})

#: Warehouse methods that compute or look up a UAdmin closure.
CLOSURE_METHODS = ("admin_deep_provenance", "label_lookup", "lineage_lookup")


class Span:
    __slots__ = ("name", "start", "end", "parent", "request", "thread", "children")

    def __init__(self, name: str, start: float, parent: Optional["Span"], request: Any) -> None:
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.request = request
        self.thread = threading.get_ident()
        self.children: List["Span"] = []

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        """Duration minus the time the children cover."""
        return self_time((self.start, self.end), [(c.start, c.end) for c in self.children])


class Recorder:
    """In-memory span store with a per-thread parent stack."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        #: Worker-side roots carry the request's future as a token until
        #: :meth:`resolve` maps it to the client's request span.
        self._owner_of: Dict[Any, Span] = {}

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str, request: Any = None) -> Iterator[Span]:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if request is None:
            request = parent.request if parent is not None else next(self._ids)
        record = Span(name, time.perf_counter(), parent, request)
        stack.append(record)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            stack.pop()
            self.spans.append(record)

    def own(self, token: Any, root: Span) -> None:
        """Declare the client-side ``root`` span as the owner of ``token``."""
        self._owner_of[token] = root

    def resolve(self) -> None:
        """Link every span to its parent, across threads, after the run."""
        for span in self.spans:
            if span.parent is None and span.request in self._owner_of:
                span.parent = self._owner_of[span.request]
        for span in self.spans:
            if span.parent is not None:
                span.parent.children.append(span)
        for root in self.roots():
            for span in descendants(root):
                span.request = root.request

    def roots(self, name: Optional[str] = None) -> List[Span]:
        return [
            span for span in self.spans
            if span.parent is None and (name is None or span.name == name)
        ]

    def dump(self, path: str) -> None:
        """Write every span as one JSON line."""
        index = {id(span): number for number, span in enumerate(self.spans)}
        with open(path, "w") as handle:
            for number, span in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": number,
                    "name": span.name,
                    "start": span.start,
                    "end": span.end,
                    "parent": index.get(id(span.parent)),
                    "request": span.request if isinstance(span.request, int) else None,
                    "thread": span.thread,
                }) + "\n")


def descendants(root: Span) -> Iterator[Span]:
    pending = list(root.children)
    while pending:
        span = pending.pop()
        yield span
        pending.extend(span.children)


def breakdown(root: Span) -> Tuple[Dict[str, float], float, float]:
    """Where one request's time went: layer self times, queue wait, the rest.

    Layer self times are summed over the spans below ``root``.  Queue
    wait runs from the end of the client's ``serve.submit`` to the start
    of the worker's ``serve.answer``.  The rest is the root's own time
    outside the queue wait: the hand-offs between threads that no span
    covers.  When no two spans overlap, the three add up to the root's
    duration.
    """
    layers: Dict[str, float] = {}
    for span in descendants(root):
        layers[span.layer] = layers.get(span.layer, 0.0) + span.self_time
    children = {child.name: child for child in root.children}
    queue = 0.0
    if "serve.submit" in children and "serve.answer" in children:
        queue = max(0.0, children["serve.answer"].start - children["serve.submit"].end)
    return layers, queue, root.self_time - queue


class Traced:
    """Forward every attribute to ``target``; time the named methods.

    ``names`` maps a method name to its span name.  Everything else —
    attributes, context managers, untimed methods — passes straight
    through, so the proxy stands in for the object wherever it is handed.
    """

    def __init__(self, target: Any, recorder: Recorder, names: Dict[str, str]) -> None:
        object.__setattr__(self, "_target", target)
        object.__setattr__(self, "_recorder", recorder)
        object.__setattr__(self, "_names", names)

    def __getattr__(self, name: str) -> Any:
        value = getattr(self._target, name)
        span_name = self._names.get(name)
        if span_name is None or not callable(value):
            return value
        recorder = self._recorder

        def timed(*args: Any, **kwargs: Any) -> Any:
            with recorder.span(span_name):
                return value(*args, **kwargs)

        return timed

    def __setattr__(self, name: str, value: Any) -> None:
        setattr(self._target, name, value)


def traced_warehouse(warehouse: Any, recorder: Recorder) -> Traced:
    """The warehouse as the reasoner and the ingestors see it when traced."""
    names = {
        name: "warehouse.%s" % name
        for name in (
            "get_run", "store_many", "store_spec", "store_view",
            "stream_begin", "stream_apply", "stream_mark_delta", "stream_close",
            "steps_of_run", "io_rows", "user_inputs", "final_outputs",
            "has_lineage_index", "has_label_index",
        ) + CLOSURE_METHODS
    }
    names.update({name: "ingest.%s" % name for name in JOURNAL_METHODS})
    return Traced(warehouse, recorder, names)


def traced_reasoner(reasoner: Any, recorder: Recorder) -> Traced:
    """The reasoner as ``QueryService`` and the streaming ingestor see it."""
    return Traced(reasoner, recorder, {
        "deep": "reasoner.deep",
        "reverse": "reasoner.reverse",
        "composite_run": "reasoner.zoom",
        "_materialize_run": "reasoner.zoom",
        "refresh_run": "reasoner.refresh",
    })


def trace_service(service: Any, recorder: Recorder) -> None:
    """Open a ``serve.answer`` span where each request enters a worker.

    The span's request is the request's future; the client that submitted
    it claims the future with :meth:`Recorder.own`, and :meth:`Recorder.
    resolve` joins the two after the run, so there is no race between the
    worker starting and the client registering.
    """
    answer = service._answer

    def traced_answer(request: Any) -> Any:
        with recorder.span("serve.answer", request=request.future):
            return answer(request)

    service._answer = traced_answer


@contextlib.contextmanager
def patched_internals(recorder: Recorder) -> Iterator[None]:
    """Time the composite and queries layers the reasoner calls directly."""
    from repro.provenance import reasoner as module

    originals = {
        "CompositeRun": module.CompositeRun,
        "deep_provenance": module.deep_provenance,
        "reverse_provenance": module.reverse_provenance,
    }
    span_names = {
        "CompositeRun": "composite.build",
        "deep_provenance": "queries.deep",
        "reverse_provenance": "queries.reverse",
    }

    def wrap(name: str, function: Callable[..., Any]) -> Callable[..., Any]:
        span_name = span_names[name]

        def timed(*args: Any, **kwargs: Any) -> Any:
            with recorder.span(span_name):
                return function(*args, **kwargs)

        return timed

    for name, function in originals.items():
        setattr(module, name, wrap(name, function))
    try:
        yield
    finally:
        for name, function in originals.items():
            setattr(module, name, function)
