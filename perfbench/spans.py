"""In-memory spans and counters, recorded from outside the program.

The benchmark never edits the code it measures.  Instead a
:class:`Tracer` replaces a function or method, where its callers look it
up, with a wrapper that opens a span around every call.  Spans stay in
memory; :func:`write_jsonl` and :func:`write_chrome` write them out when
a run ends.

A span's *self time* is its duration minus the part of that interval
its child spans cover (children are merged first, so overlapping
children are not subtracted twice).  A run's *coverage* is the share of
its root spans' wall clock that named child spans account for.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

_MISSING = object()


class Span:
    """One timed interval: name, start, end, parent span and request id."""

    __slots__ = ("id", "name", "start", "end", "parent", "rid", "tid")

    def __init__(self, id: int, name: str, start: float, parent: Optional[int],
                 rid: Optional[str], tid: int, end: Optional[float] = None):
        self.id = id
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.rid = rid
        self.tid = tid

    @property
    def duration(self) -> float:
        return (self.end if self.end is not None else self.start) - self.start


def merged_length(intervals: Iterable[Tuple[float, float]], lo: float, hi: float) -> float:
    """Total length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None and span.end is not None:
            children[span.parent].append((span.start, span.end))
    result = {}
    for span in spans:
        if span.end is None:
            continue
        covered = merged_length(children.get(span.id, ()), span.start, span.end)
        result[span.id] = span.duration - covered
    return result


def root_of(spans: Sequence[Span], root_prefix: str = "run.") -> Dict[int, int]:
    """Span id -> id of the enclosing root (a span named ``root_prefix...``).

    Spans with no such ancestor are left out; a root maps to itself.
    """
    by_id = {span.id: span for span in spans}
    found: Dict[int, Optional[int]] = {}
    for span in spans:
        chain = []
        node: Optional[Span] = span
        root: Optional[int] = None
        while node is not None:
            if node.id in found:
                root = found[node.id]
                break
            chain.append(node.id)
            if node.name.startswith(root_prefix):
                root = node.id
                break
            node = by_id.get(node.parent) if node.parent is not None else None
        for span_id in chain:
            found[span_id] = root
    return {span_id: root for span_id, root in found.items() if root is not None}


def coverage(spans: Sequence[Span], root_prefix: str = "run.",
             containers: Iterable[str] = ()) -> float:
    """Share of the root spans' wall clock that named layer spans account for.

    Roots are the spans the benchmark itself opens (names starting with
    ``root_prefix``).  The result is the summed self time of the spans
    below a root, except ``containers`` (spans that only group other
    layers, whose self time is glue no layer is named for), divided by
    the roots' summed duration.
    """
    containers = set(containers)
    roots = root_of(spans, root_prefix)
    selfs = self_times(spans)
    wall = named = 0.0
    for span in spans:
        if span.end is None or span.id not in roots:
            continue
        if span.name.startswith(root_prefix):
            wall += span.duration
        elif span.name not in containers:
            named += selfs[span.id]
    return named / wall if wall > 0 else 0.0


class Tracer:
    """Span and counter recorder with call-site wrapping.

    The current span and request id live in context variables, so
    nesting follows the call stack of each thread.  A thread started
    by the program begins with no current span; its spans become roots
    unless the benchmark opens one for it.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[Span] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self._current: contextvars.ContextVar[Optional[Span]] = contextvars.ContextVar(
            "perfbench_span", default=None
        )
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- spans and counters -------------------------------------------------
    def begin(self, name: str, rid: Optional[str] = None) -> Tuple[Span, contextvars.Token]:
        parent = self._current.get()
        if rid is None and parent is not None:
            rid = parent.rid
        with self._lock:
            span = Span(next(self._ids), name, 0.0, parent.id if parent else None,
                        rid, threading.get_ident())
            self.spans.append(span)
        token = self._current.set(span)
        span.start = self.clock()
        return span, token

    def end(self, span: Span, token: contextvars.Token) -> None:
        span.end = self.clock()
        self._current.reset(token)

    def current(self) -> Optional[Span]:
        """The innermost open span of the calling context, if any."""
        return self._current.get()

    @contextlib.contextmanager
    def span(self, name: str, rid: Optional[str] = None) -> Iterator[Span]:
        """A span around the ``with`` block (the benchmark's own roots)."""
        span, token = self.begin(name, rid)
        try:
            yield span
        finally:
            self.end(span, token)

    def count(self, name: str, value: float = 1) -> None:
        with self._lock:
            self.counters[name] += value

    # -- wrapping -----------------------------------------------------------
    def wrap(self, owner: Any, attr: str, name: str,
             on_return: Optional[Callable[[Any, tuple, dict], None]] = None,
             generator: bool = False, rid: Optional[Callable[..., str]] = None,
             transform: Optional[Callable[[Any], Any]] = None) -> None:
        """Replace ``owner.attr`` by a wrapper that spans every call.

        ``owner`` is the module or class where callers look ``attr`` up.
        ``on_return(result, args, kwargs)`` may record counters from the
        result.  With ``generator=True`` every ``next()`` on the returned
        iterator is its own span.  ``rid(*args)`` names the request a
        call serves (used for roots that run on the program's threads).
        ``transform(result)`` replaces what the call returns, e.g. to
        wrap a function the program obtains from the wrapped call.
        """
        original = owner.__dict__.get(attr, _MISSING) if hasattr(owner, "__dict__") else _MISSING
        target = getattr(owner, attr)
        if generator:
            @functools.wraps(target)
            def wrapper(*args, **kwargs):
                return self._timed_iter(name, target(*args, **kwargs), on_return)
        else:
            wrapper = functools.wraps(target)(self.spanned(name, target, on_return, rid, transform))
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def spanned(self, name: str, fn: Callable,
                on_return: Optional[Callable[[Any, tuple, dict], None]] = None,
                rid: Optional[Callable[..., str]] = None,
                transform: Optional[Callable[[Any], Any]] = None) -> Callable:
        """``fn`` with a span around every call (see :meth:`wrap`)."""
        def call(*args, **kwargs):
            span, token = self.begin(name, rid(*args) if rid is not None else None)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(span, token)
            if on_return is not None:
                on_return(result, args, kwargs)
            return result if transform is None else transform(result)
        return call

    def _timed_iter(self, name: str, iterator: Iterator, on_return) -> Iterator:
        while True:
            span, token = self.begin(name)
            try:
                item = next(iterator)
            except StopIteration:
                return
            finally:
                self.end(span, token)
            if on_return is not None:
                on_return(item, (), {})
            yield item

    def unwrap_all(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    def closed(self) -> List[Span]:
        return [span for span in self.spans if span.end is not None]


def span_records(spans: Sequence[Span]) -> List[Dict[str, Any]]:
    selfs = self_times(spans)
    return [
        {
            "id": span.id,
            "name": span.name,
            "start": span.start,
            "end": span.end,
            "self": selfs.get(span.id),
            "parent": span.parent,
            "rid": span.rid,
            "tid": span.tid,
        }
        for span in spans
        if span.end is not None
    ]


def write_jsonl(spans: Sequence[Span], path: Path) -> None:
    """One JSON object per closed span (times in seconds)."""
    with open(path, "w", encoding="utf-8") as handle:
        for record in span_records(spans):
            handle.write(json.dumps(record, sort_keys=True) + "\n")


def chrome_events(spans: Sequence[Span]) -> Dict[str, Any]:
    """Chrome trace-event JSON (complete ``X`` events, microseconds)."""
    closed = [span for span in spans if span.end is not None]
    origin = min((span.start for span in closed), default=0.0)
    return {
        "displayTimeUnit": "ms",
        "traceEvents": [
            {
                "name": span.name,
                "cat": span.name.split(".", 1)[0],
                "ph": "X",
                "ts": (span.start - origin) * 1e6,
                "dur": span.duration * 1e6,
                "pid": 1,
                "tid": span.tid,
                "args": {"id": span.id, "parent": span.parent, "rid": span.rid},
            }
            for span in closed
        ],
    }


def write_chrome(spans: Sequence[Span], path: Path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(chrome_events(spans), handle)
