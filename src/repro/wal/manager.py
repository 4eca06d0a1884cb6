"""The log manager: group commit with durability callbacks (Section 3.4).

Committed transactions enter a flush queue; a flush pass serializes their
redo buffers to the log device in commit order, issues one fsync, and then
fires each transaction's durability callbacks.  Until then the rest of the
system treats the transaction as committed but *speculative* — results must
not reach the client.

The manager can run synchronously (every ``submit`` flushes — simplest for
tests), or with an explicit/periodic ``flush`` driven by a background
thread, which models group commit.

Failure atomicity
-----------------
``flush`` treats the whole batch as one unit: state mutation and
durability callbacks happen only after a fully successful fsync.  On any
device error the device is rewound to the last durable offset (dropping
partial bytes so a retry cannot leave torn records mid-log), the batch is
re-queued *in order ahead of* later submissions, nothing is counted
persisted, and no callback fires.  The background thread survives flush
failures with bounded exponential backoff; a persistent failure streak
(``degrade_after`` consecutive failures, or an un-rewindable device)
flips the engine into degraded read-only mode via the ``on_degrade`` hook
— see :class:`repro.errors.DegradedError` and ``Database.health()``.
"""

from __future__ import annotations

import io
import threading
from collections import deque
from time import perf_counter
from typing import BinaryIO, Callable

from repro.fault.crashpoints import crash_point
from repro.obs import trace
from repro.obs.recorder import Recorder, get_recorder
from repro.obs.registry import DEFAULT_SIZE_BUCKETS, STATE, MetricRegistry
from repro.txn.context import TransactionContext
from repro.wal.records import LogMarker, encode_transaction

#: Anything the flush queue accepts: a committed transaction (encoded at
#: flush time) or a pre-encoded 2PC marker (PREPARE / DECISION record).
LogEntry = TransactionContext | LogMarker


class LogManager:
    """Serializes redo buffers and signals durability."""

    def __init__(
        self,
        device: BinaryIO | None = None,
        synchronous: bool = True,
        registry: MetricRegistry | None = None,
        degrade_after: int = 5,
        recorder: Recorder | None = None,
    ) -> None:
        #: The "disk": any binary file-like object.
        self.device = device if device is not None else io.BytesIO()
        self.synchronous = synchronous
        self._queue: deque[LogEntry] = deque()
        #: Guards the queue and the persisted-state counters (never held
        #: across device I/O — commits must not stall behind an fsync).
        self._lock = threading.Lock()
        #: Serializes flushers so concurrent ``flush`` calls cannot
        #: interleave device writes or reorder the log.  Reentrant so a
        #: durability callback may call back into the manager.
        self._io_lock = threading.RLock()
        self.flush_count = 0
        self.bytes_written = 0
        self.transactions_persisted = 0
        #: Device offset up to which the log is known durable; flush
        #: failures rewind (seek + truncate) to here before retrying.
        self._durable_offset = 0
        self.flush_failures = 0
        self.consecutive_flush_failures = 0
        #: Consecutive-failure threshold that trips degraded mode.
        self.degrade_after = degrade_after
        self.degraded = False
        self.degraded_reason: str | None = None
        #: Called once, with a reason string, when the manager degrades.
        self.on_degrade: Callable[[str], None] | None = None
        #: Exception from the background thread's final drain, surfaced by
        #: ``Database.close()``.
        self.last_flush_error: BaseException | None = None
        #: ``perf_counter()`` of the last successful fsync; ``None`` until
        #: the first one.  ``last_fsync_age_seconds`` and the health report
        #: derive the staleness operators alert on.
        self.last_fsync_at: float | None = None
        self._created_at = perf_counter()
        self._background: threading.Thread | None = None
        self._stop = threading.Event()
        self.recorder = recorder if recorder is not None else get_recorder()
        self.registry = registry if registry is not None else MetricRegistry()
        reg = self.registry
        self._m_flush_total = reg.counter("wal.flush_total", "non-empty flush passes")
        self._m_flush_failures = reg.counter(
            "wal.flush_failures_total", "flush passes failed by device errors"
        )
        self._m_callback_errors = reg.counter(
            "wal.callback_errors_total", "durability callbacks that raised"
        )
        self._m_written_bytes = reg.counter("wal.written_bytes", "log bytes persisted")
        self._m_persisted_total = reg.counter(
            "wal.txns_persisted_total", "transactions made durable"
        )
        self._m_flush_seconds = reg.histogram(
            "wal.flush_seconds", "serialize + fsync latency per flush"
        )
        self._m_batch_size = reg.histogram(
            "wal.group_commit_batch",
            "transactions per group-commit flush",
            buckets=DEFAULT_SIZE_BUCKETS,
        )
        reg.gauge(
            "wal.pending",
            "transactions enqueued but not yet persisted",
            callback=lambda: self.pending_count,
        )
        reg.gauge(
            "wal.healthy",
            "1 while the log device works, 0 once degraded",
            callback=lambda: 0.0 if self.degraded else 1.0,
        )
        reg.gauge(
            "wal.consecutive_flush_failures",
            "current flush failure streak",
            callback=lambda: self.consecutive_flush_failures,
        )
        reg.gauge(
            "wal.last_fsync_age_seconds",
            "seconds since the last successful fsync (since startup if none yet)",
            callback=lambda: self.last_fsync_age_seconds
            if self.last_fsync_at is not None
            else perf_counter() - self._created_at,
        )

    @property
    def last_fsync_age_seconds(self) -> float | None:
        """Seconds since the last successful fsync (``None`` until one)."""
        if self.last_fsync_at is None:
            return None
        return perf_counter() - self.last_fsync_at

    def submit(self, txn: LogEntry) -> None:
        """Enqueue a committed transaction (or a pre-encoded 2PC marker,
        see :class:`repro.wal.records.LogMarker`) for flushing."""
        with self._lock:
            self._queue.append(txn)
        if self.synchronous:
            self.flush()

    def flush(self) -> int:
        """Serialize and fsync everything queued; returns txns persisted.

        Read-only transactions produce no log bytes but still have their
        callbacks processed — the paper requires them to pass through the
        commit-record protocol to avoid the speculative-read anomaly.

        Failure-atomic: on a device error the batch is re-queued in commit
        order (ahead of transactions submitted meanwhile), the device is
        rewound to the last durable offset, no state is mutated, no
        callback fires, and the error propagates to the caller.
        """
        began = perf_counter() if STATE.enabled else 0.0
        with self._io_lock:
            with self._lock:
                if not self._queue:
                    return 0
                batch, self._queue = list(self._queue), deque()
            try:
                with trace.span("wal.group_commit", self.recorder):
                    flushed_bytes = 0
                    for txn in batch:
                        raw = (
                            txn.payload
                            if isinstance(txn, LogMarker)
                            else encode_transaction(txn)
                        )
                        if raw:
                            self.device.write(raw)
                            flushed_bytes += len(raw)
                    crash_point("wal.flush.pre_fsync")
                    fsync_began = perf_counter()
                    self.device.flush()  # the fsync boundary
                    fsync_seconds = perf_counter() - fsync_began
                    crash_point("wal.flush.post_fsync")
            except Exception as exc:
                self._recover_from_flush_failure(batch, exc)
                raise
            # Success: only now does anything count as persisted.
            self._durable_offset += flushed_bytes
            self.consecutive_flush_failures = 0
            self.last_fsync_at = perf_counter()
            self.recorder.record(
                "wal.fsync",
                offset=self._durable_offset,
                bytes=flushed_bytes,
                fsync_seconds=fsync_seconds,
            )
            with self._lock:
                self.bytes_written += flushed_bytes
                self.flush_count += 1
                self.transactions_persisted += len(batch)
            for txn in batch:
                try:
                    txn.signal_durable()
                except Exception:
                    # A client callback failing must not block the rest of
                    # the batch (or the flusher); the count is observable.
                    self._m_callback_errors.inc()
        if began:
            self._m_flush_total.inc()
            self._m_written_bytes.inc(flushed_bytes)
            self._m_persisted_total.inc(len(batch))
            self._m_batch_size.observe(len(batch))
            self._m_flush_seconds.observe(perf_counter() - began)
            self.recorder.record(
                "wal.flush",
                txns=len(batch),
                bytes=flushed_bytes,
                duration_seconds=perf_counter() - began,
            )
        return len(batch)

    def _recover_from_flush_failure(
        self, batch: list[LogEntry], exc: Exception
    ) -> None:
        """Restore the pre-flush state after a device error.

        Re-queues the batch in order ahead of later submissions and rewinds
        the device to the last durable offset so partial bytes cannot
        corrupt the log on retry.  An un-rewindable device (no seek support,
        or the rewind itself failing) poisons the log permanently —
        degraded mode trips immediately.
        """
        with self._lock:
            self._queue.extendleft(reversed(batch))
        self.flush_failures += 1
        self.consecutive_flush_failures += 1
        self._m_flush_failures.inc()
        self.recorder.record(
            "wal.flush_failure",
            txns=len(batch),
            streak=self.consecutive_flush_failures,
            error=repr(exc),
        )
        rewound = False
        try:
            if hasattr(self.device, "seek") and hasattr(self.device, "truncate"):
                self.device.seek(self._durable_offset)
                self.device.truncate(self._durable_offset)
                rewound = True
        except Exception:
            rewound = False
        if not rewound:
            self._enter_degraded(f"log device unrewindable after {exc!r}")
        elif self.consecutive_flush_failures >= self.degrade_after:
            self._enter_degraded(
                f"{self.consecutive_flush_failures} consecutive flush failures, "
                f"last: {exc!r}"
            )

    def _enter_degraded(self, reason: str) -> None:
        if self.degraded:
            return
        self.degraded = True
        self.degraded_reason = reason
        self.recorder.record("wal.degraded", reason=reason)
        hook = self.on_degrade
        if hook is not None:
            hook(reason)

    @property
    def pending_count(self) -> int:
        """Transactions enqueued but not yet persisted."""
        return len(self._queue)

    # ------------------------------------------------------------------ #
    # background group commit                                             #
    # ------------------------------------------------------------------ #

    def start_background(self, interval: float = 0.005, max_backoff: float = 0.5) -> None:
        """Run ``flush`` every ``interval`` seconds on a daemon thread.

        The thread survives flush failures: each consecutive failure doubles
        the wait (bounded by ``max_backoff``) so a struggling device is not
        hammered, and the first success resets the cadence.
        """
        if self._background is not None:
            return
        self.synchronous = False
        self._stop.clear()

        def _loop() -> None:
            delay = interval
            while not self._stop.wait(delay):
                try:
                    self.flush()
                except Exception:
                    # Counted inside flush(); the batch is re-queued.
                    delay = min(max_backoff, delay * 2 if delay > 0 else interval)
                    continue
                delay = interval
            try:
                self.flush()
                self.last_flush_error = None
            except Exception as exc:
                self.last_flush_error = exc

        self._background = threading.Thread(target=_loop, daemon=True, name="log-manager")
        self._background.start()

    def stop_background(self) -> None:
        """Stop the background thread, flushing whatever remains.

        Idempotent, and safe to call from the background thread itself
        (e.g. from a durability callback): in that case the stop flag is
        set and the loop exits after the current pass instead of
        deadlocking on a self-join.  A final failed drain is recorded in
        ``last_flush_error`` (surfaced by ``Database.close()``), not
        raised here.
        """
        thread = self._background
        if thread is None:
            return
        self._stop.set()
        self._background = None
        if thread is threading.current_thread():
            return
        thread.join()

    def truncate(self, device: BinaryIO | None = None) -> None:
        """Replace the log device and zero the byte accounting (used by
        checkpointing, which makes the pre-checkpoint log obsolete)."""
        self.device = device if device is not None else io.BytesIO()
        self.bytes_written = 0
        self._durable_offset = 0
        self._m_written_bytes.reset()

    def contents(self) -> bytes:
        """The full log image (only for in-memory devices).

        Accepts a raw ``io.BytesIO`` or any wrapper exposing ``image()``
        (e.g. :class:`repro.fault.FaultyDevice`).
        """
        if isinstance(self.device, io.BytesIO):
            return self.device.getvalue()
        image = getattr(self.device, "image", None)
        if callable(image):
            return image()
        raise TypeError("contents() requires an in-memory log device")
