"""Outside-in span recording for the why-query benchmark.

The benchmark attributes explain time to layers without touching the
package: :class:`SpanRecorder` replaces the public entry point of each
layer (a class method, or a function at the module that imports it) with
a wrapper that records one span -- name, layer, start, end, parent and
request id -- in memory.  ``layers.install_layer_spans`` lists every
wrapped entry point; :meth:`SpanRecorder.uninstall` puts the originals back, so
untraced passes run the package's own code.

Self-time is derived after the run by a sweep over each request's spans
(:func:`attribute_request`): every instant of the request is charged to
the most recently started span still open, whatever thread it runs on.
Spans on one thread nest, so this is the usual "duration minus the part
its children cover"; across threads (the protocol server runs an explain
on a worker thread while its loop thread writes frames) it still splits
the request's wall time into disjoint pieces, so the layer self-times
plus the unattributed remainder sum exactly to the explain time.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import json
import threading
import time
from collections import Counter
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

#: layer charged with request time no wrapped entry point covers
UNATTRIBUTED = "unattributed"

#: (request id, span id, parent span id, name, layer, start ns, end ns, thread)
Span = Tuple[Any, int, Optional[int], str, str, int, int, int]

Hook = Callable[[tuple, dict], Any]
AfterHook = Callable[[tuple, dict, Any, Any], None]


class SpanRecorder:
    """Keeps spans and work counters in memory while a request is open."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        #: id of the open request (``None``: wrappers call straight through)
        self.rid: Any = None
        self._root: Optional[int] = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: List[Tuple[Any, str, Any]] = []
        #: entry points that could not be wrapped
        self.skipped: List[str] = []

    # -- requests ---------------------------------------------------------

    @contextmanager
    def request(self, rid: Any, name: str = "request"):
        """Open request ``rid``; its root span is charged to UNATTRIBUTED.

        Spans opened on any thread while the request is open, and not
        nested in another span of the same thread, become children of the
        root (one client, closed loop: one request is open at a time).
        """
        sid = next(self._ids)
        self._root = sid
        self.rid = rid
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self.rid = None
            self._root = None
            self.spans.append(
                (rid, sid, None, name, UNATTRIBUTED, start, end, threading.get_ident())
            )

    # -- wrapping ---------------------------------------------------------

    def _stack(self) -> List[int]:
        try:
            return self._local.stack
        except AttributeError:
            stack = self._local.stack = []
            return stack

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        layer: str,
        before: Optional[Hook] = None,
        after: Optional[AfterHook] = None,
    ) -> None:
        """Replace ``owner.attr`` (or ``owner[attr]`` for a dict) by a
        span-recording wrapper.  ``before(args, kwargs)`` runs ahead of the
        call and its result is handed to ``after(args, kwargs, state,
        result)``, which runs once the call returned; both run outside the
        span's own interval.  A missing owner or attribute (an entry point
        a refactor removed) is noted in :attr:`skipped` instead."""
        is_dict = isinstance(owner, dict)
        if owner is None or not (attr in owner if is_dict else hasattr(owner, attr)):
            self.skipped.append(name)
            return
        original = owner[attr] if is_dict else getattr(owner, attr)
        recorder = self
        clock = time.perf_counter_ns
        ident = threading.get_ident
        spans = self.spans

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            rid = recorder.rid
            if rid is None:
                return original(*args, **kwargs)
            stack = recorder._stack()
            parent = stack[-1] if stack else recorder._root
            sid = next(recorder._ids)
            state = before(args, kwargs) if before is not None else None
            stack.append(sid)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((rid, sid, parent, name, layer, start, end, ident()))
            if after is not None:
                after(args, kwargs, state, result)
            return result

        if is_dict:
            owner[attr] = wrapper
        else:
            setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        """Restore every wrapped entry point."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    # -- output -----------------------------------------------------------

    def dump(self, path: str) -> None:
        """Write every span as one JSON array per line."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(
                "# rid, span, parent, name, layer, start_ns, end_ns, thread\n"
            )
            for span in self.spans:
                handle.write(json.dumps(span, default=str) + "\n")


def attribute_request(spans: Iterable[Span]) -> Dict[str, int]:
    """Self-time per layer (ns) of one request's spans, root included.

    Sweeps the request's interval and charges each elementary piece to
    the most recently started open span (ties: the later span id).
    Pieces outside the root interval are dropped, so the result sums to
    the root span's duration.
    """
    spans = list(spans)
    root = next(span for span in spans if span[2] is None)
    lo, hi = root[5], root[6]
    events: List[Tuple[int, int, Span]] = []
    for span in spans:
        start, end = max(span[5], lo), min(span[6], hi)
        if end <= start:
            continue
        events.append((start, 1, span))
        events.append((end, 0, span))
    # ends sort before starts at equal times
    events.sort(key=lambda event: (event[0], event[1]))
    totals: Dict[str, int] = Counter()
    open_heap: List[Tuple[int, int, Span]] = []
    closed = set()
    previous = lo
    for at, is_start, span in events:
        while open_heap and open_heap[0][1] in closed:
            heapq.heappop(open_heap)
        if open_heap and at > previous:
            totals[open_heap[0][2][4]] += at - previous
        previous = at
        if is_start:
            heapq.heappush(open_heap, (-span[5], -span[1], span))
        else:
            closed.add(-span[1])
    return dict(totals)


def attribute(spans: Iterable[Span], rids: Iterable[Any]) -> Dict[str, int]:
    """Summed per-layer self-time (ns) over the requests ``rids``."""
    wanted = set(rids)
    by_request: Dict[Any, List[Span]] = {rid: [] for rid in wanted}
    for span in spans:
        if span[0] in wanted:
            by_request[span[0]].append(span)
    totals: Counter = Counter()
    for request_spans in by_request.values():
        if request_spans:
            totals.update(attribute_request(request_spans))
    return dict(totals)
