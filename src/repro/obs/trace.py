"""Trace spans: nestable timing scopes journaled as flight-recorder records.

``with span("wal.group_commit", recorder): ...`` stages one :class:`Span`
per exit in ``recorder``'s ring (see :mod:`repro.obs.recorder`), beside
the journal events on the same ``perf_counter`` axis, bounded and counted
the same way.  A span opened without a recorder lands in its enclosing
span's, and a span with neither in the process-default recorder.  Spans
nest through a per-thread stack, so every record knows its parent and
every parent accumulates its children's time; ``self_seconds`` is the
span's *exclusive* duration — the number Figure 12b's phase-breakdown
series wants.

Spans also carry a **trace id**: the outermost span of a nest mints one
and every descendant inherits it, so work that nests on one thread's
stack — a 2PC commit and its per-shard prepare and commit spans — lands
in one causal tree.

When observability is disabled (``obs.configure(enabled=False)``) the
``span`` call returns a shared no-op context manager: no clock reads, no
allocation, no journal traffic.
"""

from __future__ import annotations

import itertools
import os
import threading
from time import perf_counter
from typing import TYPE_CHECKING

from repro.obs.registry import STATE

if TYPE_CHECKING:
    from repro.obs.recorder import Recorder

#: Process-wide trace-id sequence, salted with the pid so ids minted in
#: different processes can never collide.
_TRACE_IDS = itertools.count(1)
#: Process-wide span ids: a parent and its child may land in different
#: recorders, so ids must not restart per recorder.
_SPAN_IDS = itertools.count(1)
#: Per-thread stack of live spans.
_LOCAL = threading.local()


def new_trace_id() -> int:
    return ((os.getpid() & 0xFFFFF) << 40) | next(_TRACE_IDS)


def _stack() -> list:
    try:
        return _LOCAL.stack
    except AttributeError:
        stack: list = []
        _LOCAL.stack = stack
        return stack


class Span:
    """One finished timing scope (a journal record: ``seq`` orders it
    among its recorder's events)."""

    __slots__ = (
        "seq", "span_id", "parent_id", "name", "start", "duration",
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
        self.seq = 0
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


class _ActiveSpan:
    """Context manager for one live scope (class-based: no generator cost)."""

    __slots__ = (
        "recorder", "name", "start", "child_seconds", "_parent",
        "span_id", "trace_id", "attrs",
    )

    def __init__(
        self, recorder: "Recorder | None", name: str, attrs: dict | None
    ) -> None:
        self.recorder = recorder
        self.name = name
        self.child_seconds = 0.0
        self.attrs = attrs

    def __enter__(self) -> "_ActiveSpan":
        self.span_id = next(_SPAN_IDS)
        stack = _stack()
        self._parent = parent = stack[-1] if stack else None
        if parent is not None:
            self.trace_id = parent.trace_id
            if self.recorder is None:
                self.recorder = parent.recorder
        else:
            self.trace_id = new_trace_id()
            if self.recorder is None:
                from repro.obs.recorder import get_recorder

                self.recorder = get_recorder()
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
        stack = _stack()
        if stack and stack[-1] is self:
            stack.pop()
        parent = self._parent
        if parent is not None:
            parent.child_seconds += duration
            parent_id = parent.span_id
        else:
            parent_id = None
        self.recorder.add(
            Span(
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
        )


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


def span(
    name: str, recorder: "Recorder | None" = None, **attrs
) -> "_ActiveSpan | _NullSpan":
    """Open a timing scope journaled into ``recorder`` (default: the
    enclosing span's recorder, else the process-default one)."""
    if not STATE.enabled:
        return _NULL_SPAN
    return _ActiveSpan(recorder, name, attrs or None)


def current_trace_id() -> int | None:
    """The trace id of the innermost live span on this thread, or
    ``None`` outside every span."""
    stack = _stack()
    return stack[-1].trace_id if stack else None
