"""Trace spans: nestable timing scopes feeding a bounded ring buffer.

``with span("wal.group_commit"): ...`` records one :class:`Span` per exit
into a :class:`Tracer`'s ring buffer (a ``deque(maxlen=...)`` — old spans
fall off, memory stays bounded).  Spans nest through a per-thread stack,
so every record knows its parent and every parent accumulates its
children's time; ``self_seconds`` is the span's *exclusive* duration —
the number Figure 12b's phase-breakdown series wants.

Spans also carry a **trace id**: the outermost span of a nest mints one
and every descendant inherits it, so work that nests on one thread's
stack — a 2PC commit and its per-shard prepare and commit spans — lands
in one causal tree.

When observability is disabled (``obs.configure(enabled=False)``) the
``span`` call returns a shared no-op context manager: no clock reads, no
allocation, no buffer traffic.

A :class:`TailSampler` may be installed on a tracer
(``tracer.set_tail_sampler(...)``): finished spans are then held per
trace until the trace's **root** span closes, at which point the whole
trace is either flushed to the ring buffer (root slower than the
threshold, in the top-k reservoir of slowest roots, or explicitly
``mark``-ed — how shed/errored/degraded requests are retained) or
dropped with exact accounting.  That is tail-based sampling: the keep
decision waits until the outcome is known, so slow/broken requests keep
their full trace while the bulk of healthy traffic costs no buffer
space.
"""

from __future__ import annotations

import itertools
import os
import threading
from collections import deque
from time import perf_counter
from typing import Iterator

from repro.obs.registry import STATE

DEFAULT_CAPACITY = 4096

#: Process-wide trace-id sequence, salted with the pid so ids minted in
#: different processes can never collide.
_TRACE_IDS = itertools.count(1)


def new_trace_id() -> int:
    return ((os.getpid() & 0xFFFFF) << 40) | next(_TRACE_IDS)


class Span:
    """One finished timing scope."""

    __slots__ = (
        "span_id", "parent_id", "name", "start", "duration",
        "child_seconds", "thread", "trace_id", "attrs",
    )

    def __init__(
        self,
        span_id: int,
        parent_id: int | None,
        name: str,
        start: float,
        duration: float,
        child_seconds: float,
        thread: str,
        trace_id: int | None = None,
        attrs: dict | None = None,
    ) -> None:
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.start = start
        self.duration = duration
        self.child_seconds = child_seconds
        self.thread = thread
        self.trace_id = trace_id
        self.attrs = attrs

    @property
    def self_seconds(self) -> float:
        """Duration exclusive of nested spans (never below zero)."""
        return max(0.0, self.duration - self.child_seconds)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span({self.name!r}, {self.duration * 1e3:.3f}ms, "
            f"self={self.self_seconds * 1e3:.3f}ms)"
        )


class SpanSummary:
    """Per-name aggregate over a batch of spans."""

    __slots__ = ("name", "count", "total_seconds", "self_seconds", "max_seconds")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total_seconds = 0.0
        self.self_seconds = 0.0
        self.max_seconds = 0.0

    def add(self, span: Span) -> None:
        self.count += 1
        self.total_seconds += span.duration
        self.self_seconds += span.self_seconds
        self.max_seconds = max(self.max_seconds, span.duration)


class _ActiveSpan:
    """Context manager for one live scope (class-based: no generator cost)."""

    __slots__ = (
        "_tracer", "name", "start", "child_seconds", "_parent",
        "span_id", "trace_id", "attrs",
    )

    def __init__(self, tracer: "Tracer", name: str, attrs: dict | None) -> None:
        self._tracer = tracer
        self.name = name
        self.child_seconds = 0.0
        self.attrs = attrs

    def __enter__(self) -> "_ActiveSpan":
        tracer = self._tracer
        self.span_id = next(tracer._ids)
        stack = tracer._stack()
        self._parent = parent = stack[-1] if stack else None
        self.trace_id = parent.trace_id if parent is not None else new_trace_id()
        stack.append(self)
        self.start = perf_counter()
        return self

    def set_attr(self, key: str, value) -> None:
        """Attach/overwrite one attribute on the live span (e.g. a 2PC
        decision known only at exit time)."""
        if self.attrs is None:
            self.attrs = {}
        self.attrs[key] = value

    def __exit__(self, *exc_info) -> None:
        duration = perf_counter() - self.start
        tracer = self._tracer
        stack = tracer._stack()
        if stack and stack[-1] is self:
            stack.pop()
        parent = self._parent
        if parent is not None:
            parent.child_seconds += duration
            parent_id = parent.span_id
        else:
            parent_id = None
        span = Span(
            self.span_id,
            parent_id,
            self.name,
            self.start,
            duration,
            self.child_seconds,
            threading.current_thread().name,
            self.trace_id,
            self.attrs,
        )
        sampler = tracer._sampler
        if sampler is None:
            tracer._buffer.append(span)
        else:
            # A span with no parent on this thread's stack is the root of
            # its trace; root close is the tail-sampling decision point.
            sampler.offer(tracer, span, parent is None)


class _NullSpan:
    """Shared do-nothing scope for the disabled path."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        return None

    def set_attr(self, key: str, value) -> None:
        return None


_NULL_SPAN = _NullSpan()


class TailSampler:
    """Tail-based trace sampling with exact drop accounting.

    Finished spans are buffered per trace id; when the trace's root span
    closes the whole trace is judged at once:

    - **kept** when the root's duration meets ``threshold``, when the
      trace was :meth:`mark`-ed (the service marks shed/errored/degraded
      requests before the root closes), or when the root lands in the
      ``top_k`` reservoir of slowest roots seen so far;
    - **dropped** otherwise — every buffered span counted, never silently.

    Accounting is exact under concurrency: every span offered either
    reaches the tracer buffer (``kept_spans``) or increments
    ``dropped_spans`` (including spans of pending traces evicted at the
    ``max_pending`` bound and spans whose root never closes by
    :meth:`flush_pending` time), all under one lock.
    """

    def __init__(
        self,
        threshold: float | None = None,
        top_k: int = 0,
        max_pending: int = 512,
        registry=None,
    ) -> None:
        if threshold is None and top_k <= 0:
            raise ValueError(
                "tail sampler needs a slow threshold, a top-k reservoir, "
                "or both"
            )
        if max_pending < 1:
            raise ValueError("max_pending must be positive")
        self.threshold = threshold
        self.top_k = top_k
        self.max_pending = max_pending
        self._lock = threading.Lock()
        self._pending: dict[int, list[Span]] = {}
        self._order: deque[int] = deque()
        self._marked: dict[int, str] = {}
        #: Smallest-first root durations currently holding top-k slots.
        self._reservoir: list[float] = []
        self.kept_traces = 0
        self.kept_spans = 0
        self.dropped_traces = 0
        self.dropped_spans = 0
        self._m_kept = self._m_dropped = None
        if registry is not None:
            self._m_kept = registry.counter(
                "trace.tail_kept_total", "traces retained by the tail sampler"
            )
            self._m_dropped = registry.counter(
                "trace.tail_dropped_spans_total",
                "spans dropped at trace close by the tail sampler",
            )

    def mark(self, trace_id: int, reason: str = "marked") -> None:
        """Force-keep ``trace_id`` when its root closes (shed / errored /
        degraded requests).  Must be called before the root span exits."""
        with self._lock:
            self._marked[trace_id] = reason

    def offer(self, tracer: "Tracer", span: Span, is_root: bool) -> None:
        """Called by the tracer at span close; decides at root close."""
        if span.trace_id is None:
            tracer._buffer.append(span)
            return
        with self._lock:
            spans = self._pending.get(span.trace_id)
            if spans is None:
                if len(self._order) >= self.max_pending:
                    evicted_id = self._order.popleft()
                    evicted = self._pending.pop(evicted_id, ())
                    self._marked.pop(evicted_id, None)
                    self.dropped_traces += 1
                    self.dropped_spans += len(evicted)
                    if self._m_dropped is not None:
                        self._m_dropped.inc(len(evicted))
                spans = self._pending[span.trace_id] = []
                self._order.append(span.trace_id)
            spans.append(span)
            if not is_root:
                return
            del self._pending[span.trace_id]
            try:
                self._order.remove(span.trace_id)
            except ValueError:  # pragma: no cover - evicted concurrently
                pass
            reason = self._decide(span)
            if reason is not None:
                self.kept_traces += 1
                self.kept_spans += len(spans)
                if self._m_kept is not None:
                    self._m_kept.inc()
                tracer._buffer.extend(spans)
            else:
                self.dropped_traces += 1
                self.dropped_spans += len(spans)
                if self._m_dropped is not None:
                    self._m_dropped.inc(len(spans))

    def _decide(self, root: Span) -> str | None:
        """Keep reason for a closed root, or ``None`` to drop.  Caller
        holds the lock."""
        reason = self._marked.pop(root.trace_id, None)
        if reason is not None:
            return reason
        if self.threshold is not None and root.duration >= self.threshold:
            return "slow"
        if self.top_k > 0:
            reservoir = self._reservoir
            if len(reservoir) < self.top_k:
                reservoir.append(root.duration)
                reservoir.sort()
                return "top_k"
            if root.duration > reservoir[0]:
                reservoir[0] = root.duration
                reservoir.sort()
                return "top_k"
        return None

    def flush_pending(self) -> int:
        """Drop every trace still waiting for its root (server shutdown);
        returns the number of spans discarded — counted, as always."""
        with self._lock:
            discarded = sum(len(spans) for spans in self._pending.values())
            self.dropped_traces += len(self._pending)
            self.dropped_spans += discarded
            if self._m_dropped is not None and discarded:
                self._m_dropped.inc(discarded)
            self._pending.clear()
            self._order.clear()
            self._marked.clear()
        return discarded

    def stats(self) -> dict:
        with self._lock:
            return {
                "kept_traces": self.kept_traces,
                "kept_spans": self.kept_spans,
                "dropped_traces": self.dropped_traces,
                "dropped_spans": self.dropped_spans,
                "pending_traces": len(self._pending),
            }


class Tracer:
    """A bounded span sink with per-thread nesting stacks."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError("tracer capacity must be positive")
        self.capacity = capacity
        self._buffer: deque[Span] = deque(maxlen=capacity)
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._sampler: TailSampler | None = None

    def set_tail_sampler(self, sampler: TailSampler | None) -> None:
        """Install (or remove, with ``None``) tail-based sampling."""
        self._sampler = sampler

    def _stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            stack: list = []
            self._local.stack = stack
            return stack

    def span(self, name: str, **attrs) -> "_ActiveSpan | _NullSpan":
        """A context manager timing ``name`` (no-op while disabled)."""
        if not STATE.enabled:
            return _NULL_SPAN
        return _ActiveSpan(self, name, attrs or None)

    def current_trace_id(self) -> int | None:
        """The trace id of the innermost live span on this thread, or
        ``None`` outside every span."""
        stack = self._stack()
        return stack[-1].trace_id if stack else None

    def spans(self) -> list[Span]:
        """Snapshot of the buffer, oldest first."""
        return list(self._buffer)

    def drain(self) -> list[Span]:
        """Snapshot and clear."""
        out = self.spans()
        self._buffer.clear()
        return out

    def reset(self) -> None:
        self._buffer.clear()

    def __len__(self) -> int:
        return len(self._buffer)

    def __iter__(self) -> Iterator[Span]:
        return iter(self.spans())

    def summarize(self) -> dict[str, SpanSummary]:
        """Aggregate the buffered spans by name."""
        summaries: dict[str, SpanSummary] = {}
        for span in self.spans():
            summaries.setdefault(span.name, SpanSummary(span.name)).add(span)
        return summaries


#: The default tracer engine components record into.
_DEFAULT_TRACER = Tracer()


def get_tracer() -> Tracer:
    """The process-default tracer."""
    return _DEFAULT_TRACER


def span(
    name: str, tracer: Tracer | None = None, **attrs
) -> "_ActiveSpan | _NullSpan":
    """Open a timing scope on ``tracer`` (default: the process tracer)."""
    if not STATE.enabled:
        return _NULL_SPAN
    # ``is None``, not ``or``: an empty Tracer is falsy (``__len__``).
    return (_DEFAULT_TRACER if tracer is None else tracer).span(name, **attrs)


def current_trace_id() -> int | None:
    """Module-level :meth:`Tracer.current_trace_id` on the default tracer."""
    return _DEFAULT_TRACER.current_trace_id()
