"""The flight recorder: a bounded, lock-light structured event journal.

Every engine layer emits typed :class:`Event` records at its interesting
edges — transaction begin/commit/abort/retry, WAL flush batches and fsyncs,
degraded-mode flips, GC passes, block state transitions with the heat
statistics that triggered them, crash-point fires, export requests.  The
journal answers the operator questions metrics cannot: *what happened,
in what order, around this incident?*

The same off-critical-path principle as the metric registry applies
(Section 4.2's ride-along idea): the hot-path ``record`` call appends to a
**thread-local buffer** (no lock), and buffers spill into the shared ring
only every ``local_buffer`` events.  The ring is bounded and drops oldest
under pressure; every eviction is counted in ``obs.events_dropped_total``
so a scrape can tell how much history the journal actually holds.  With
``obs.configure(enabled=False)`` the whole path is one attribute load and
a branch.

On top of the journal sit the forensic views:

- :meth:`Recorder.timeline` — the causal begin→(retries)→commit/abort
  chain of one transaction, with the trace spans that ran inside it,
- :meth:`Recorder.slow_transactions` — auto-captured timelines of every
  transaction that exceeded ``slow_txn_threshold`` seconds,
- :func:`render_chrome_trace` — spans + events as a Chrome/Perfetto
  ``chrome://tracing`` JSON document.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
import weakref
from collections import deque
from time import perf_counter
from typing import TYPE_CHECKING, Any, Iterator

from repro.obs.registry import STATE, Counter, MetricRegistry
from repro.obs.slo import CURRENT as _REQUEST

if TYPE_CHECKING:
    from repro.obs.trace import Span, Tracer

DEFAULT_CAPACITY = 8192
DEFAULT_LOCAL_BUFFER = 32
DEFAULT_SLOW_LOG_CAPACITY = 64

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
    ``threading.current_thread()`` lookup on every event."""

    __slots__ = ("events", "thread_name")

    def __init__(self) -> None:
        self.events: list[Event] = []
        self.thread_name = threading.current_thread().name


class Recorder:
    """A bounded ring of :class:`Event` with thread-local write buffering.

    The write path is lock-free: each thread owns a staging list and only
    takes the ring lock when the list reaches ``local_buffer`` entries.
    Readers merge the ring with every thread's staging list (buffers are
    cleared only by their owner, so reads never lose events) and sort by
    the global sequence number.  When a spill would overflow ``capacity``,
    the oldest ring entries are evicted and counted in
    ``obs.events_dropped_total``.
    """

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        registry: MetricRegistry | None = None,
        slow_txn_threshold: float | None = None,
        slow_log_capacity: int = DEFAULT_SLOW_LOG_CAPACITY,
        local_buffer: int = DEFAULT_LOCAL_BUFFER,
    ) -> None:
        if capacity < 1:
            raise ValueError("recorder capacity must be positive")
        if local_buffer < 1:
            raise ValueError("local buffer size must be positive")
        self.capacity = capacity
        self.local_buffer = local_buffer
        #: Latency (seconds) above which a finished transaction's timeline
        #: is auto-captured into the slow log; ``None`` disables capture.
        self.slow_txn_threshold = slow_txn_threshold
        self._ring: deque[Event] = deque()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._buffers: list[_LocalBuffer] = []
        self._seq = itertools.count(1)
        #: Wall-clock anchor: (time.time(), perf_counter()) at creation, so
        #: renderers can map monotonic timestamps to calendar time.
        self.wall_base = (time.time(), perf_counter())
        self._slow_log: deque[dict[str, Any]] = deque(maxlen=slow_log_capacity)
        #: Optional live :class:`~repro.obs.profiler.SamplingProfiler`; when
        #: set, slow-transaction captures get ``top_stack`` attribution.
        self.profiler = None
        self._registry = registry
        self._m_dropped: Counter | None = None
        if registry is not None:
            self._m_dropped = registry.counter(
                "obs.events_dropped_total",
                "journal events evicted from the ring under pressure",
            )
            registry.gauge(
                "obs.journal_events",
                "events currently held by the journal",
                callback=lambda: float(len(self)),
            )
            registry.gauge(
                "obs.slow_transactions",
                "timelines held by the slow-transaction log",
                callback=lambda: float(len(self._slow_log)),
            )
        _LIVE.add(self)

    # ------------------------------------------------------------------ #
    # write path                                                          #
    # ------------------------------------------------------------------ #

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
            buf = _LocalBuffer()
            with self._lock:
                self._buffers.append(buf)
            self._local.buf = buf
        buf.events.append(
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
        if len(buf.events) >= self.local_buffer:
            self._spill(buf)

    def _spill(self, buf: _LocalBuffer) -> None:
        """Move a thread's staged events into the ring (owner thread only)."""
        with self._lock:
            staged = buf.events
            if not staged:
                return
            ring = self._ring
            overflow = len(ring) + len(staged) - self.capacity
            if overflow > 0:
                evict = min(overflow, len(ring))
                for _ in range(evict):
                    ring.popleft()
                dropped = overflow  # staged beyond capacity also never land
                if len(staged) > self.capacity:
                    staged = staged[-self.capacity:]
                self._dropped_counter().inc(dropped)
            ring.extend(staged)
            buf.events.clear()

    def _dropped_counter(self) -> Counter:
        if self._m_dropped is None:
            if self._registry is None:
                from repro.obs import get_registry

                self._registry = get_registry()
            self._m_dropped = self._registry.counter(
                "obs.events_dropped_total",
                "journal events evicted from the ring under pressure",
            )
        return self._m_dropped

    @property
    def events_dropped(self) -> int:
        """Total events evicted so far (0 until the first eviction)."""
        if self._m_dropped is None:
            return 0
        return int(self._m_dropped.value)

    # ------------------------------------------------------------------ #
    # read path                                                           #
    # ------------------------------------------------------------------ #

    def events(
        self,
        component: str | None = None,
        kind: str | None = None,
        txn_id: int | None = None,
        block_id: int | None = None,
        request_id: int | None = None,
        limit: int | None = None,
    ) -> list[Event]:
        """Merged, filtered journal contents, oldest first.

        ``limit`` keeps the *newest* matches.  Filters compose (AND).
        """
        with self._lock:
            merged = list(self._ring)
            for buf in self._buffers:
                merged.extend(list(buf.events))
        merged.sort(key=lambda e: e.seq)
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
            merged = merged[-limit:]
        return merged

    def __len__(self) -> int:
        with self._lock:
            return len(self._ring) + sum(len(b.events) for b in self._buffers)

    def __iter__(self) -> Iterator[Event]:
        return iter(self.events())

    def clear(self) -> None:
        """Drop every buffered event and slow-log entry (test isolation)."""
        with self._lock:
            self._ring.clear()
            for buf in self._buffers:
                buf.events.clear()
        self._slow_log.clear()

    # ------------------------------------------------------------------ #
    # transaction timelines                                               #
    # ------------------------------------------------------------------ #

    def timeline(self, txn_id: int, tracer: "Tracer | None" = None) -> dict[str, Any]:
        """The causal timeline of one transaction.

        Follows ``txn.retry`` links both directions, so the timeline of
        *any* attempt in a retry chain covers the whole
        begin→(retries)→commit/abort history.  Trace spans recorded on the
        same thread within an attempt's lifetime are attached under
        ``spans`` (best-effort: spans carry no txn ids, so attribution is
        by thread + time overlap).
        """
        all_events = self.events()
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
        spans = self._attached_spans(events, began, ended, tracer)
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
        events: list[Event],
        began: Event | None,
        ended: Event | None,
        tracer: "Tracer | None",
    ) -> list[dict[str, Any]]:
        if began is None:
            return []
        if tracer is None:
            from repro.obs.trace import get_tracer

            tracer = get_tracer()
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
        for span in tracer.spans():
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
    # slow-transaction log                                                 #
    # ------------------------------------------------------------------ #

    def note_txn_complete(
        self, txn_id: int, duration: float, status: str
    ) -> None:
        """Called by the transaction manager after commit/abort; captures
        the timeline when the transaction exceeded the slow threshold."""
        threshold = self.slow_txn_threshold
        if threshold is None or duration < threshold:
            return
        entry = self.timeline(txn_id)
        entry["captured_status"] = status
        entry["captured_duration_seconds"] = duration
        profiler = self.profiler
        if profiler is not None and profiler.running:
            top = profiler.top_of_stack(threading.current_thread().name)
            if top is not None:
                entry["top_stack"] = top
        self._slow_log.append(entry)

    def slow_transactions(self) -> list[dict[str, Any]]:
        """Captured slow-transaction timelines, oldest first."""
        return list(self._slow_log)


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
    tracer: "Tracer | None" = None,
    indent: int | None = None,
    trace_id: int | None = None,
    requests: list | None = None,
) -> str:
    """Spans + journal events as a ``chrome://tracing`` JSON document.

    Spans become complete (``ph: "X"``) slices; journal events become
    thread-scoped instants (``ph: "i"``).  Timestamps are microseconds on
    the shared ``perf_counter`` axis, so the two interleave correctly on
    the coordinator's process track (pid 1).  Span slices carry
    ``trace_id``/``span_id``/``parent_id`` in ``args``, so one distributed
    transaction is greppable across every track.  Load the output in
    ``chrome://tracing`` or https://ui.perfetto.dev.

    ``trace_id`` narrows the document to one trace: only spans of that
    trace and journal events tagged with it (via attrs or the request ids
    in ``requests``) are kept — the shape of the tail-sampled slow-request
    artifact.  ``requests`` adds a per-request **waterfall track**: each
    :class:`~repro.obs.slo.RequestLifecycle` renders its phase stamps as
    slices on a dedicated ``requests`` process track.
    """
    if recorder is None:
        recorder = get_recorder()
    if tracer is None:
        from repro.obs.trace import get_tracer

        tracer = get_tracer()
    events = recorder.events()
    spans = tracer.spans()
    requests = requests or []
    if trace_id is not None:
        spans = [s for s in spans if s.trace_id == trace_id]
        request_ids = {
            r.request_id for r in requests if r.trace_id == trace_id
        }
        events = [
            e
            for e in events
            if (e.attrs or {}).get("trace_id") == trace_id
            or (e.request_id is not None and e.request_id in request_ids)
        ]
        requests = [r for r in requests if r.trace_id == trace_id]
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
    # row under one "requests" process, phases as slices, the request as
    # an enclosing slice so the critical path reads left to right.
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
