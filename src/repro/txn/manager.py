"""The transaction manager: begin / commit / abort (Section 3.1).

Commits run a small critical section that draws the commit timestamp,
stamps it on the transaction's delta records, and hands the redo buffer to
the log manager's flush queue.  Aborts restore before-images in place and
then "commit" the undo records with an always-invisible timestamp — the
paper's fix for the A-B-A race that makes unlinking at abort time unsafe.
"""

from __future__ import annotations

import threading
from collections import deque
from time import perf_counter
from typing import TYPE_CHECKING, Callable, Iterable

from repro.errors import DegradedError, TransactionAborted
from repro.obs.recorder import Recorder, get_recorder
from repro.obs.registry import STATE, MetricRegistry
from repro.txn.context import TransactionContext, TxnState
from repro.txn.timestamps import TimestampManager
from repro.txn.undo import DeleteUndoRecord, InsertUndoRecord, UpdateUndoRecord

if TYPE_CHECKING:
    from repro.wal.manager import LogManager


class TransactionManager:
    """Coordinates transaction lifecycles over one timestamp domain."""

    def __init__(
        self,
        timestamps: TimestampManager | None = None,
        log_manager: "LogManager | None" = None,
        registry: MetricRegistry | None = None,
        recorder: Recorder | None = None,
    ) -> None:
        self.timestamps = timestamps or TimestampManager()
        self.log_manager = log_manager
        self._lock = threading.Lock()
        #: The transactions table: every active transaction, by start ts.
        self._active: dict[int, TransactionContext] = {}
        #: Completed (committed or aborted) transactions awaiting GC.
        self._completed: deque[tuple[int, TransactionContext]] = deque()
        #: Set (with a reason) when the engine can no longer make commits
        #: durable; new writers are rejected with :class:`DegradedError`.
        self._degraded_reason: str | None = None
        self.recorder = recorder if recorder is not None else get_recorder()
        self.registry = registry if registry is not None else MetricRegistry()
        reg = self.registry
        self._m_begin_total = reg.counter("txn.begin_total", "transactions started")
        self._m_commit_total = reg.counter("txn.commit_total", "transactions committed")
        self._m_abort_total = reg.counter("txn.abort_total", "transactions rolled back")
        self._m_conflict_total = reg.counter(
            "txn.ww_conflict_abort_total",
            "aborts forced by write-write conflicts",
        )
        self._m_prepare_total = reg.counter(
            "txn.prepare_total", "transactions prepared for two-phase commit"
        )
        self._m_begin_seconds = reg.histogram("txn.begin_seconds", "begin latency")
        self._m_commit_seconds = reg.histogram(
            "txn.commit_seconds", "commit latency incl. log submission"
        )
        self._m_abort_seconds = reg.histogram("txn.abort_seconds", "rollback latency")
        reg.gauge("txn.active", "in-flight transactions", callback=lambda: self.active_count)
        reg.gauge(
            "txn.pending_gc",
            "completed transactions awaiting GC",
            callback=lambda: self.pending_gc_count,
        )

    # ------------------------------------------------------------------ #
    # lifecycle                                                           #
    # ------------------------------------------------------------------ #

    def begin(self) -> TransactionContext:
        """Start a transaction; its snapshot is the current clock value."""
        began = perf_counter() if STATE.enabled else 0.0
        start_ts, txn_id = self.timestamps.begin()
        txn = TransactionContext(start_ts, txn_id)
        txn.began_at = began
        txn.write_gate = self._check_write_allowed
        with self._lock:
            self._active[start_ts] = txn
        if began:
            self._m_begin_total.inc()
            self._m_begin_seconds.observe(perf_counter() - began)
            self.recorder.record("txn.begin", txn_id=txn_id, start_ts=start_ts)
        return txn

    def commit(
        self,
        txn: TransactionContext,
        callback: Callable[[], None] | None = None,
    ) -> int:
        """Commit ``txn``; returns its commit timestamp.

        Raises :class:`TransactionAborted` (after rolling back) when a
        prior conflict marked the transaction ``must_abort``.
        """
        if txn.state is not TxnState.ACTIVE:
            raise TransactionAborted(f"transaction already {txn.state.value}")
        if txn.must_abort:
            self.abort(txn)
            raise TransactionAborted("transaction aborted by write-write conflict")
        if self._degraded_reason is not None and not txn.is_read_only:
            # A write that slipped in before degradation: its commit could
            # never become durable, so roll it back instead of stranding it
            # in a flush queue that will never drain.
            self.abort(txn)
            raise DegradedError(
                f"cannot commit writes in degraded read-only mode: "
                f"{self._degraded_reason}"
            )
        began = perf_counter() if STATE.enabled else 0.0
        commit_ts = self._stamp_commit(txn)
        if callback is not None:
            txn.on_durable(callback)
        if self.log_manager is not None:
            # Read-only transactions go through the queue too (Section 3.4):
            # they write no bytes, but are signalled only after the flush.
            self.log_manager.submit(txn)
        else:
            # No durability requested: results are immediately publishable.
            txn.signal_durable()
        if began:
            self._note_commit(txn, began)
        return commit_ts

    # ------------------------------------------------------------------ #
    # two-phase commit participant hooks                                   #
    # ------------------------------------------------------------------ #

    def prepare(self, txn: TransactionContext, gid: str) -> None:
        """Vote yes on distributed transaction ``gid``: force the redo
        stream durable under a ``PRP`` record, then hold the transaction
        in ``PREPARED`` until :meth:`commit_prepared` or :meth:`abort`.

        The prepared transaction stays in the active-transactions table —
        it pins the GC horizon and its undo records keep blocking
        conflicting writers — but it can no longer read or write.

        Raises :class:`TransactionAborted` (conflict), :class:`DegradedError`
        (read-only mode), or the device error that prevented the prepare
        record from becoming durable; in every failure case the
        transaction is fully rolled back first, so a raising ``prepare``
        is a completed no-vote.
        """
        from repro.wal.records import LogMarker, encode_prepare

        if txn.state is not TxnState.ACTIVE:
            raise TransactionAborted(f"transaction already {txn.state.value}")
        if txn.must_abort:
            self.abort(txn)
            raise TransactionAborted("transaction aborted by write-write conflict")
        if self._degraded_reason is not None and not txn.is_read_only:
            self.abort(txn)
            raise DegradedError(
                f"cannot prepare writes in degraded read-only mode: "
                f"{self._degraded_reason}"
            )
        txn.gid = gid
        txn.state = TxnState.PREPARED
        if self.log_manager is not None and len(txn.redo_buffer) > 0:
            marker = LogMarker(encode_prepare(txn, gid))
            try:
                self.log_manager.submit(marker)
                if not marker.durable:
                    # Prepare is a *forced* write: the yes-vote must be on
                    # disk before it is spoken.
                    self.log_manager.flush()
                if not marker.durable:
                    raise OSError("prepare record did not become durable")
            except Exception:
                # A failed prepare is a no-vote: roll back completely.
                # The stale PRP marker may still sit in the re-queued
                # flush batch; the DEC-abort the rollback appends after
                # it (or presumed abort, if neither ever hits the disk)
                # keeps recovery correct.
                txn.state = TxnState.ACTIVE
                self.abort(txn)
                raise
        if STATE.enabled:
            self._m_prepare_total.inc()
            self.recorder.record(
                "txn.prepare",
                txn_id=txn.txn_id,
                gid=gid,
                writes=len(txn.undo_buffer),
            )

    def commit_prepared(self, txn: TransactionContext) -> int:
        """Apply a coordinator's commit decision to a prepared transaction.

        Identical to :meth:`commit`'s critical section, but skips the
        conflict/degraded pre-checks — those were settled at prepare time,
        and the decision is already durable at the coordinator, so this
        must succeed even on a degraded shard.  The participant's own
        ``DEC`` record is written lazily (unforced): if it never reaches
        the disk, recovery resolves the in-doubt prepare from the
        coordinator log instead.
        """
        from repro.wal.records import DECISION_COMMIT, LogMarker, encode_decision

        if txn.state is not TxnState.PREPARED:
            raise TransactionAborted(
                f"cannot commit a {txn.state.value} transaction as prepared"
            )
        began = perf_counter() if STATE.enabled else 0.0
        commit_ts = self._stamp_commit(txn)
        if self.log_manager is not None and len(txn.redo_buffer) > 0:
            assert txn.gid is not None
            marker = LogMarker(
                encode_decision(txn.gid, DECISION_COMMIT, commit_ts), txn=txn
            )
            try:
                self.log_manager.submit(marker)
            except Exception:
                # The failure-atomic flush re-queued the marker; the
                # outcome is already decided durably at the coordinator,
                # so the commit stands regardless.
                pass
        else:
            txn.signal_durable()
        if began:
            self._note_commit(txn, began)
        return commit_ts

    def _stamp_commit(self, txn: TransactionContext) -> int:
        """The commit critical section: draw the timestamp, stamp every undo
        record and move ``txn`` from the active table to the completed
        queue, all under ``_lock`` so no ``begin`` sees it half-stamped."""
        with self._lock:
            commit_ts = self.timestamps.commit_timestamp()
            for record in txn.undo_buffer:
                record.timestamp = commit_ts
            txn.commit_ts = commit_ts
            txn.state = TxnState.COMMITTED
            del self._active[txn.start_ts]
            self._completed.append((commit_ts, txn))
        return commit_ts

    def _note_commit(self, txn: TransactionContext, began: float) -> None:
        """Commit metrics and the ``txn.commit`` journal entry (``gid`` is
        the distributed id of a prepared transaction, else ``None``)."""
        self._m_commit_total.inc()
        self._m_commit_seconds.observe(perf_counter() - began)
        lifetime = perf_counter() - txn.began_at if txn.began_at else 0.0
        self.recorder.record(
            "txn.commit",
            txn_id=txn.txn_id,
            commit_ts=txn.commit_ts,
            gid=txn.gid,
            writes=len(txn.undo_buffer),
            duration_seconds=lifetime,
        )
        self.recorder.note_txn_complete(txn.txn_id, lifetime, "committed")

    def abort(self, txn: TransactionContext) -> None:
        """Roll back ``txn``: restore before-images newest-first, then stamp
        records with the aborted sentinel so they are invisible forever.

        Also accepts ``PREPARED`` transactions (a coordinator abort
        decision); their abort decision is logged lazily — presumed abort
        makes an unwritten ``DEC`` record equivalent to a written one.
        """
        if txn.state not in (TxnState.ACTIVE, TxnState.PREPARED):
            raise TransactionAborted(f"transaction already {txn.state.value}")
        began = perf_counter() if STATE.enabled else 0.0
        for record in reversed(txn.undo_buffer):
            if isinstance(record, UpdateUndoRecord):
                record.table.rollback_update(record)
            elif isinstance(record, InsertUndoRecord):
                record.table.rollback_insert(record)
            elif isinstance(record, DeleteUndoRecord):
                record.table.rollback_delete(record)
            record.mark_aborted()
        for compensation in reversed(txn.abort_actions):
            compensation()
        with self._lock:
            abort_ts = self.timestamps.commit_timestamp()
            txn.state = TxnState.ABORTED
            del self._active[txn.start_ts]
            self._completed.append((abort_ts, txn))
        if (
            txn.gid is not None
            and self.log_manager is not None
            and len(txn.redo_buffer) > 0
        ):
            from repro.wal.records import DECISION_ABORT, LogMarker, encode_decision

            try:
                # Lazy, unforced: presumed abort makes losing this record
                # in a crash harmless, and it must never raise here.
                self.log_manager.submit(LogMarker(encode_decision(txn.gid, DECISION_ABORT)))
            except Exception:
                pass
        # An abort needs no durability: its commit record is never written.
        txn.signal_durable()
        if began:
            self._m_abort_total.inc()
            if txn.must_abort:
                self._m_conflict_total.inc()
            self._m_abort_seconds.observe(perf_counter() - began)
            lifetime = perf_counter() - txn.began_at if txn.began_at else 0.0
            self.recorder.record(
                "txn.abort",
                txn_id=txn.txn_id,
                conflict=txn.must_abort,
                writes=len(txn.undo_buffer),
                duration_seconds=lifetime,
            )
            self.recorder.note_txn_complete(txn.txn_id, lifetime, "aborted")

    # ------------------------------------------------------------------ #
    # degraded read-only mode                                             #
    # ------------------------------------------------------------------ #

    @property
    def degraded(self) -> bool:
        """Whether new writers are being rejected."""
        return self._degraded_reason is not None

    @property
    def degraded_reason(self) -> str | None:
        return self._degraded_reason

    def enter_degraded(self, reason: str) -> None:
        """Flip into degraded read-only mode (sticky; reads keep working)."""
        if self._degraded_reason is None:
            self._degraded_reason = reason
            self.recorder.record("txn.degraded_mode", reason=reason)

    def _check_write_allowed(self) -> None:
        """The per-write gate installed on every transaction context."""
        reason = self._degraded_reason
        if reason is not None:
            raise DegradedError(f"database is in degraded read-only mode: {reason}")

    # ------------------------------------------------------------------ #
    # GC interface                                                        #
    # ------------------------------------------------------------------ #

    def oldest_active_start(self) -> int:
        """Start timestamp of the oldest running transaction, or the
        current clock when the system is idle — the GC horizon."""
        with self._lock:
            if self._active:
                return min(self._active)
        return self.timestamps.current + 1

    def drain_completed(self, horizon: int) -> list[TransactionContext]:
        """Pop completed transactions whose end timestamp is below
        ``horizon``; their version records are invisible to every active
        transaction and safe to unlink."""
        drained: list[TransactionContext] = []
        with self._lock:
            while self._completed and self._completed[0][0] <= horizon:
                drained.append(self._completed.popleft()[1])
        return drained

    @property
    def active_count(self) -> int:
        """Number of in-flight transactions."""
        return len(self._active)

    @property
    def pending_gc_count(self) -> int:
        """Completed transactions not yet collected."""
        return len(self._completed)

    def active_transactions(self) -> Iterable[TransactionContext]:
        """Snapshot of the active transactions table."""
        with self._lock:
            return list(self._active.values())
