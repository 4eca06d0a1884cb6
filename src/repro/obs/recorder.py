"""The flight recorder: one bounded, lock-light journal of typed records.

Every engine layer emits typed :class:`Event` records at its interesting
edges — transaction begin/commit/abort/retry, WAL flush batches and fsyncs,
degraded-mode flips, GC passes, block state transitions with the heat
statistics that triggered them, crash-point fires, export requests.  The
same ring holds the other two record kinds: finished trace spans
(:class:`~repro.obs.trace.Span`, staged by :func:`repro.obs.trace.span`)
and completed service requests
(:class:`~repro.obs.slo.RequestLifecycle`, staged by the front door).
The journal answers the operator questions metrics cannot: *what
happened, in what order, around this incident?*

The same off-critical-path principle as the metric registry applies
(Section 4.2's ride-along idea): the hot-path ``record``/``add`` call
appends to a **thread-local buffer** (no lock), and buffers spill into the
shared ring only every ``local_buffer`` records.  A thread that exits with
a partly filled buffer has it folded into the ring by the next spill or
read.  The ring is bounded and drops oldest under pressure, whatever the
record kind; every eviction is counted in ``obs.events_dropped_total`` so a
scrape can tell how much history the journal actually holds.  With
``obs.configure(enabled=False)`` the event path is one attribute load and
a branch.

Every view is a filter over that one ring:

- :meth:`Recorder.events`, :meth:`Recorder.spans` and
  :meth:`Recorder.requests` — the records of one kind,
- :meth:`Recorder.timeline` — the causal begin→(retries)→commit/abort
  chain of one transaction, with the trace spans that ran inside it,
- :meth:`Recorder.slow_transactions` — the ``txn.slow`` events: timelines
  auto-captured for every transaction that exceeded
  ``slow_txn_threshold`` seconds,
- :func:`render_chrome_trace` — spans, events and request waterfalls as a
  Chrome/Perfetto ``chrome://tracing`` JSON document.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
import weakref
from collections import deque
from time import perf_counter
from typing import Any

from repro.obs.registry import STATE, Counter, MetricRegistry
from repro.obs.slo import CURRENT as _REQUEST
from repro.obs.slo import RequestLifecycle
from repro.obs.trace import Span

DEFAULT_CAPACITY = 8192
DEFAULT_LOCAL_BUFFER = 32

#: Every live recorder, for rare broadcast events (block reheats, crash
#: fires) emitted from layers that have no recorder handle of their own.
_LIVE: "weakref.WeakSet[Recorder]" = weakref.WeakSet()


class Event:
    """One journal entry: what happened, when, on which thread, to whom.

    ``ts`` is ``time.perf_counter()`` — the same monotonic clock trace
    spans use, so events and spans interleave on one axis.  ``txn_id`` and
    ``block_id`` are the correlation ids; ``attrs`` carries the kind's
    payload (batch sizes, heat statistics, error strings, ...).
    """

    __slots__ = (
        "seq", "ts", "kind", "thread", "txn_id", "block_id", "attrs",
        "request_id",
    )

    def __init__(
        self,
        seq: int,
        ts: float,
        kind: str,
        thread: str,
        txn_id: int | None,
        block_id: int | None,
        attrs: dict[str, Any] | None,
        request_id: int | None = None,
    ) -> None:
        self.seq = seq
        self.ts = ts
        self.kind = kind
        self.thread = thread
        self.txn_id = txn_id
        self.block_id = block_id
        self.attrs = attrs
        #: The service request being handled when this event fired (from
        #: the request lifecycle bound to the emitting thread), so
        #: ``/events?request=<id>`` filters the journal end-to-end.
        self.request_id = request_id

    @property
    def component(self) -> str:
        """The kind's first dotted segment (``txn``, ``wal``, ``block``...)."""
        return self.kind.partition(".")[0]

    def to_dict(self) -> dict[str, Any]:
        """A stable JSON-serializable view (used by ``/events``)."""
        out: dict[str, Any] = {
            "seq": self.seq,
            "ts": self.ts,
            "kind": self.kind,
            "thread": self.thread,
        }
        if self.txn_id is not None:
            out["txn_id"] = self.txn_id
        if self.block_id is not None:
            out["block_id"] = self.block_id
        if self.request_id is not None:
            out["request_id"] = self.request_id
        if self.attrs:
            out["attrs"] = self.attrs
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        ids = ""
        if self.txn_id is not None:
            ids += f", txn={self.txn_id}"
        if self.block_id is not None:
            ids += f", block={self.block_id}"
        return f"Event({self.kind!r}{ids}, attrs={self.attrs})"


class _LocalBuffer:
    """Per-thread staging list, registered with its owning recorder.

    The owning thread's name is cached here so the hot path skips the
    ``threading.current_thread()`` lookup on every event; the thread itself
    is kept so the recorder can tell when the owner has exited."""

    __slots__ = ("records", "thread", "thread_name")

    def __init__(self) -> None:
        self.records: list = []
        self.thread = threading.current_thread()
        self.thread_name = self.thread.name


class Recorder:
    """A bounded ring of journal records with thread-local write buffering.

    A record is an :class:`Event`, a :class:`~repro.obs.trace.Span` or a
    :class:`~repro.obs.slo.RequestLifecycle`; each carries the recorder's
    global sequence number in ``seq``.  The write path is lock-free: each
    thread owns a staging list and only takes the ring lock when the list
    reaches ``local_buffer`` entries.  Readers merge the ring with every
    live thread's staging list (a live buffer is cleared only by its
    owner, so reads never lose records) and sort by ``seq``.  Under the
    ring lock, every spill and read first folds the staging lists of
    threads that have exited into the ring and forgets their buffers, so
    short-lived threads stay inside ``capacity`` and are not tracked
    forever.  When a fold would overflow ``capacity``, the oldest ring
    entries are evicted and counted in ``obs.events_dropped_total``.
    """

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        registry: MetricRegistry | None = None,
        slow_txn_threshold: float | None = None,
        local_buffer: int = DEFAULT_LOCAL_BUFFER,
    ) -> None:
        if capacity < 1:
            raise ValueError("recorder capacity must be positive")
        if local_buffer < 1:
            raise ValueError("local buffer size must be positive")
        self.capacity = capacity
        self.local_buffer = local_buffer
        #: Latency (seconds) above which a finished transaction's timeline
        #: is captured as a ``txn.slow`` event; ``None`` disables capture.
        self.slow_txn_threshold = slow_txn_threshold
        self._ring: deque = deque(maxlen=capacity)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._buffers: list[_LocalBuffer] = []
        self._seq = itertools.count(1)
        #: Wall-clock anchor: (time.time(), perf_counter()) at creation, so
        #: renderers can map monotonic timestamps to calendar time.
        self.wall_base = (time.time(), perf_counter())
        #: Optional live :class:`~repro.obs.profiler.SamplingProfiler`; when
        #: set, slow-transaction captures get ``top_stack`` attribution.
        self.profiler = None
        self._registry = registry
        self._m_dropped: Counter | None = None
        if registry is not None:
            self._m_dropped = registry.counter(
                "obs.events_dropped_total",
                "journal records evicted from the ring under pressure",
            )
            registry.gauge(
                "obs.journal_events",
                "records currently held by the journal",
                callback=lambda: float(len(self)),
            )
        _LIVE.add(self)

    # ------------------------------------------------------------------ #
    # write path                                                          #
    # ------------------------------------------------------------------ #

    def _new_buffer(self) -> _LocalBuffer:
        """Register this thread's staging list (first record only)."""
        buf = _LocalBuffer()
        with self._lock:
            self._buffers.append(buf)
        self._local.buf = buf
        return buf

    def record(
        self,
        kind: str,
        txn_id: int | None = None,
        block_id: int | None = None,
        request_id: int | None = None,
        **attrs: Any,
    ) -> None:
        """Emit one event (hot path: a list append when enabled).

        When the emitting thread is inside an activated request lifecycle
        the event is tagged with that request's id automatically; an
        explicit ``request_id`` overrides (for completion bookkeeping that
        runs off the request thread).
        """
        if not STATE.enabled:
            return
        if request_id is None:
            lifecycle = getattr(_REQUEST, "lifecycle", None)
            if lifecycle is not None:
                request_id = lifecycle.request_id
        try:
            buf = self._local.buf
        except AttributeError:
            buf = self._new_buffer()
        buf.records.append(
            Event(
                next(self._seq),
                perf_counter(),
                kind,
                buf.thread_name,
                txn_id,
                block_id,
                attrs or None,
                request_id=request_id,
            )
        )
        if len(buf.records) >= self.local_buffer:
            self._spill(buf)

    def add(self, record: Any) -> None:
        """Stage a finished span, a completed request lifecycle or a
        ready-made event, stamping its ``seq``."""
        try:
            buf = self._local.buf
        except AttributeError:
            buf = self._new_buffer()
        record.seq = next(self._seq)
        buf.records.append(record)
        if len(buf.records) >= self.local_buffer:
            self._spill(buf)

    def _spill(self, buf: _LocalBuffer) -> None:
        """Move a thread's staged records into the ring (owner thread only)."""
        with self._lock:
            self._fold_exited()
            self._fold(buf)

    def _fold(self, buf: _LocalBuffer) -> None:
        """Append ``buf``'s records to the ring, evicting the oldest beyond
        ``capacity`` (caller holds ``_lock``; ``buf``'s owner is this
        thread or has exited)."""
        staged = buf.records
        if not staged:
            return
        # The ring's maxlen evicts; staged records beyond capacity never
        # land at all, and both count as dropped.
        overflow = len(self._ring) + len(staged) - self.capacity
        if overflow > 0:
            self._dropped_counter().inc(overflow)
        self._ring.extend(staged)
        staged.clear()

    def _fold_exited(self) -> None:
        """Fold and forget the buffers of threads that have exited (caller
        holds ``_lock``)."""
        exited = [buf for buf in self._buffers if not buf.thread.is_alive()]
        for buf in exited:
            self._fold(buf)
            self._buffers.remove(buf)

    def _dropped_counter(self) -> Counter:
        if self._m_dropped is None:
            if self._registry is None:
                from repro.obs import get_registry

                self._registry = get_registry()
            self._m_dropped = self._registry.counter(
                "obs.events_dropped_total",
                "journal records evicted from the ring under pressure",
            )
        return self._m_dropped

    @property
    def events_dropped(self) -> int:
        """Total records evicted so far (0 until the first eviction)."""
        if self._m_dropped is None:
            return 0
        return int(self._m_dropped.value)

    # ------------------------------------------------------------------ #
    # read path                                                           #
    # ------------------------------------------------------------------ #

    def _records(self) -> list:
        """Every held record, oldest first."""
        with self._lock:
            self._fold_exited()
            merged = list(self._ring)
            for buf in self._buffers:
                merged.extend(list(buf.records))
        merged.sort(key=lambda r: r.seq)
        return merged

    def events(
        self,
        component: str | None = None,
        kind: str | None = None,
        txn_id: int | None = None,
        block_id: int | None = None,
        request_id: int | None = None,
        limit: int | None = None,
    ) -> list[Event]:
        """Merged, filtered journal events, oldest first.

        ``limit`` keeps the *newest* matches.  Filters compose (AND).
        """
        merged = [r for r in self._records() if type(r) is Event]
        if component is not None:
            merged = [e for e in merged if e.component == component]
        if kind is not None:
            merged = [e for e in merged if e.kind == kind]
        if txn_id is not None:
            merged = [e for e in merged if e.txn_id == txn_id]
        if block_id is not None:
            merged = [e for e in merged if e.block_id == block_id]
        if request_id is not None:
            merged = [e for e in merged if e.request_id == request_id]
        if limit is not None and limit >= 0:
            merged = merged[max(0, len(merged) - limit):]
        return merged

    def spans(self, trace_id: int | None = None) -> list[Span]:
        """Finished trace spans held by the journal, in close order."""
        return [
            r
            for r in self._records()
            if type(r) is Span and (trace_id is None or r.trace_id == trace_id)
        ]

    def requests(
        self, request_id: int | None = None, trace_id: int | None = None
    ) -> list[RequestLifecycle]:
        """Completed service requests held by the journal, oldest first;
        ``request_id`` / ``trace_id`` narrow to one request."""
        return [
            r
            for r in self._records()
            if type(r) is RequestLifecycle
            and (request_id is None or r.request_id == request_id)
            and (trace_id is None or r.trace_id == trace_id)
        ]

    def __len__(self) -> int:
        with self._lock:
            self._fold_exited()
            return len(self._ring) + sum(len(b.records) for b in self._buffers)

    def clear(self) -> None:
        """Drop every held record (test isolation)."""
        with self._lock:
            self._ring.clear()
            for buf in self._buffers:
                buf.records.clear()

    # ------------------------------------------------------------------ #
    # transaction timelines                                               #
    # ------------------------------------------------------------------ #

    def timeline(self, txn_id: int) -> dict[str, Any]:
        """The causal timeline of one transaction.

        Follows ``txn.retry`` links both directions, so the timeline of
        *any* attempt in a retry chain covers the whole
        begin→(retries)→commit/abort history.  Trace spans journaled on
        the same thread within an attempt's lifetime are attached under
        ``spans`` (best-effort: spans carry no txn ids, so attribution is
        by thread + time overlap).
        """
        records = self._records()
        all_events = [r for r in records if type(r) is Event]
        chain = self._retry_chain(txn_id, all_events)
        events = [e for e in all_events if e.txn_id in chain]
        began = next((e for e in events if e.kind == "txn.begin"), None)
        ended = next(
            (e for e in reversed(events) if e.kind in ("txn.commit", "txn.abort")),
            None,
        )
        status = "unknown"
        if ended is not None:
            status = "committed" if ended.kind == "txn.commit" else "aborted"
        spans = self._attached_spans(
            [r for r in records if type(r) is Span], events, began, ended
        )
        return {
            "txn_id": txn_id,
            "chain": chain,
            "retries": max(0, len(chain) - 1),
            "status": status,
            "complete": began is not None and ended is not None,
            "begin_ts": began.ts if began is not None else None,
            "end_ts": ended.ts if ended is not None else None,
            "duration_seconds": (
                ended.ts - began.ts if began is not None and ended is not None else None
            ),
            "events": [e.to_dict() for e in events],
            "spans": spans,
        }

    def _retry_chain(self, txn_id: int, all_events: list[Event]) -> list[int]:
        """Attempt ids linked by ``txn.retry`` events, oldest first."""
        prev_of: dict[int, int] = {}
        next_of: dict[int, int] = {}
        for event in all_events:
            if event.kind == "txn.retry" and event.attrs:
                prev = event.attrs.get("prev_txn_id")
                if prev is not None and event.txn_id is not None:
                    prev_of[event.txn_id] = prev
                    next_of[prev] = event.txn_id
        chain = [txn_id]
        seen = {txn_id}
        head = txn_id
        while head in prev_of and prev_of[head] not in seen:
            head = prev_of[head]
            chain.insert(0, head)
            seen.add(head)
        tail = txn_id
        while tail in next_of and next_of[tail] not in seen:
            tail = next_of[tail]
            chain.append(tail)
            seen.add(tail)
        return chain

    def _attached_spans(
        self,
        spans: list[Span],
        events: list[Event],
        began: Event | None,
        ended: Event | None,
    ) -> list[dict[str, Any]]:
        if began is None:
            return []
        end_ts = ended.ts if ended is not None else float("inf")
        threads = {e.thread for e in events}
        # Events that ran under a propagated trace (2PC) carry the trace
        # id; spans sharing it are causally part of this transaction even
        # on other threads.
        trace_ids = {
            e.attrs["trace_id"]
            for e in events
            if e.attrs and e.attrs.get("trace_id") is not None
        }
        out = []
        for span in spans:
            by_thread = span.thread in threads and span.start < end_ts and (
                span.start + span.duration > began.ts
            )
            by_trace = span.trace_id is not None and span.trace_id in trace_ids
            if by_thread or by_trace:
                entry = {
                    "name": span.name,
                    "start": span.start,
                    "duration_seconds": span.duration,
                    "self_seconds": span.self_seconds,
                    "thread": span.thread,
                }
                if span.trace_id is not None:
                    entry["trace_id"] = span.trace_id
                out.append(entry)
        return out

    # ------------------------------------------------------------------ #
    # slow-transaction captures                                           #
    # ------------------------------------------------------------------ #

    def note_txn_complete(
        self, txn_id: int, duration: float, status: str
    ) -> None:
        """Called by the transaction manager after commit/abort; journals
        the timeline as one ``txn.slow`` event when the transaction
        exceeded the slow threshold.  The event carries no ``txn_id`` of
        its own (the captured timeline names it), so it never shows up in
        a later timeline of the same transaction."""
        threshold = self.slow_txn_threshold
        if threshold is None or duration < threshold:
            return
        entry = self.timeline(txn_id)
        entry["captured_status"] = status
        entry["captured_duration_seconds"] = duration
        thread = threading.current_thread().name
        profiler = self.profiler
        if profiler is not None and profiler.running:
            top = profiler.top_of_stack(thread)
            if top is not None:
                entry["top_stack"] = top
        self.add(Event(0, perf_counter(), "txn.slow", thread, None, None, entry))

    def slow_transactions(self) -> list[dict[str, Any]]:
        """Captured slow-transaction timelines still in the ring, oldest
        first."""
        return [e.attrs for e in self.events(kind="txn.slow")]


# ---------------------------------------------------------------------- #
# process-default recorder + broadcast                                     #
# ---------------------------------------------------------------------- #

_DEFAULT_RECORDER: Recorder | None = None
_DEFAULT_LOCK = threading.Lock()


def get_recorder() -> Recorder:
    """The process-default recorder (components without a Database)."""
    global _DEFAULT_RECORDER
    if _DEFAULT_RECORDER is None:
        with _DEFAULT_LOCK:
            if _DEFAULT_RECORDER is None:
                _DEFAULT_RECORDER = Recorder()
    return _DEFAULT_RECORDER


def broadcast(
    kind: str, txn_id: int | None = None, block_id: int | None = None, **attrs: Any
) -> None:
    """Emit a rare event into *every* live recorder.

    Used by layers with no recorder handle (block reheats deep in storage,
    crash-point fires): the event must reach whichever database's journal
    is watching.  Never use this on a hot path — it walks a weak set.
    """
    if not STATE.enabled:
        return
    recorders = list(_LIVE) or [get_recorder()]
    for recorder in recorders:
        recorder.record(kind, txn_id=txn_id, block_id=block_id, **attrs)


# ---------------------------------------------------------------------- #
# Chrome-trace / Perfetto export                                           #
# ---------------------------------------------------------------------- #


def render_chrome_trace(
    recorder: Recorder | None = None,
    indent: int | None = None,
    trace_id: int | None = None,
) -> str:
    """The journal as a ``chrome://tracing`` JSON document.

    Spans become complete (``ph: "X"``) slices; events become
    thread-scoped instants (``ph: "i"``).  Timestamps are microseconds on
    the shared ``perf_counter`` axis, so the two interleave correctly on
    the coordinator's process track (pid 1).  Span slices carry
    ``trace_id``/``span_id``/``parent_id`` in ``args``, so one distributed
    transaction is greppable across every track.  Each completed
    :class:`~repro.obs.slo.RequestLifecycle` renders as a per-request
    **waterfall track** on a ``requests`` process: the request as an
    enclosing slice, its phase stamps as slices inside it.  Load the
    output in ``chrome://tracing`` or https://ui.perfetto.dev.

    ``trace_id`` narrows the document to one trace: only spans and
    requests of that trace and events tagged with it (via attrs or the
    matching requests' ids) are kept — the slow-request artifact's shape.
    """
    if recorder is None:
        recorder = get_recorder()
    records = recorder._records()
    events = [r for r in records if type(r) is Event]
    spans = [r for r in records if type(r) is Span]
    requests = [r for r in records if type(r) is RequestLifecycle]
    if trace_id is not None:
        spans = [s for s in spans if s.trace_id == trace_id]
        requests = [r for r in requests if r.trace_id == trace_id]
        request_ids = {r.request_id for r in requests}
        events = [
            e
            for e in events
            if (e.attrs or {}).get("trace_id") == trace_id
            or (e.request_id is not None and e.request_id in request_ids)
        ]
    base = min(
        [e.ts for e in events]
        + [s.start for s in spans]
        + [r.started for r in requests],
        default=recorder.wall_base[1],
    )
    pids: dict[str, int] = {"coordinator": 1}
    tids: dict[tuple[int, str], int] = {}

    def pid(process: str) -> int:
        if process not in pids:
            pids[process] = len(pids) + 1
        return pids[process]

    def tid(process: str, thread: str) -> int:
        key = (pid(process), thread)
        if key not in tids:
            tids[key] = len(tids) + 1
        return tids[key]

    trace_events: list[dict[str, Any]] = []
    for span in spans:
        args: dict[str, Any] = {"self_seconds": span.self_seconds}
        if span.trace_id is not None:
            args["trace_id"] = span.trace_id
        args["span_id"] = span.span_id
        if span.parent_id is not None:
            args["parent_id"] = span.parent_id
        if span.attrs:
            args.update(span.attrs)
        trace_events.append(
            {
                "ph": "X",
                "name": span.name,
                "cat": span.name.partition(".")[0],
                "pid": 1,
                "tid": tid("coordinator", span.thread),
                "ts": (span.start - base) * 1e6,
                "dur": span.duration * 1e6,
                "args": args,
            }
        )
    for event in events:
        args = dict(event.attrs or {})
        if event.txn_id is not None:
            args["txn_id"] = event.txn_id
        if event.block_id is not None:
            args["block_id"] = event.block_id
        trace_events.append(
            {
                "ph": "i",
                "name": event.kind,
                "cat": event.component,
                "pid": 1,
                "tid": tid("coordinator", event.thread),
                "ts": (event.ts - base) * 1e6,
                "s": "t",
                "args": args,
            }
        )
    # Per-request waterfall tracks: every lifecycle gets its own thread
    # row under one "requests" process, so the critical path reads left
    # to right.
    for lifecycle in requests:
        row = tid("requests", f"request {lifecycle.request_id}")
        request_pid = pid("requests")
        end = lifecycle.ended if lifecycle.ended is not None else lifecycle.started
        args: dict[str, Any] = {
            "request_id": lifecycle.request_id,
            "op": lifecycle.op,
            "tenant": lifecycle.tenant,
            "outcome": lifecycle.outcome,
            "dominant_phase": lifecycle.dominant_phase(),
        }
        if lifecycle.trace_id is not None:
            args["trace_id"] = lifecycle.trace_id
        trace_events.append(
            {
                "ph": "X",
                "name": f"request:{lifecycle.op}",
                "cat": "request",
                "pid": request_pid,
                "tid": row,
                "ts": (lifecycle.started - base) * 1e6,
                "dur": max(0.0, end - lifecycle.started) * 1e6,
                "args": args,
            }
        )
        for phase_name, start, stop in lifecycle.phases:
            trace_events.append(
                {
                    "ph": "X",
                    "name": phase_name,
                    "cat": "request.phase",
                    "pid": request_pid,
                    "tid": row,
                    "ts": (start - base) * 1e6,
                    "dur": max(0.0, stop - start) * 1e6,
                    "args": {"request_id": lifecycle.request_id},
                }
            )
    for process, mapped_pid in pids.items():
        trace_events.append(
            {
                "ph": "M",
                "name": "process_name",
                "pid": mapped_pid,
                "tid": 0,
                "args": {"name": process},
            }
        )
    for (mapped_pid, thread), mapped_tid in tids.items():
        trace_events.append(
            {
                "ph": "M",
                "name": "thread_name",
                "pid": mapped_pid,
                "tid": mapped_tid,
                "args": {"name": thread},
            }
        )
    document = {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
        "otherData": {
            "producer": "repro.obs.recorder",
            "wall_base_unix_seconds": recorder.wall_base[0],
        },
    }
    return json.dumps(document, indent=indent)
