"""Per-transaction state: timestamps, undo buffer, redo buffer."""

from __future__ import annotations

import enum
import threading
from typing import Callable

from repro.obs.slo import stamp_phase
from repro.txn.redo import RedoRecord
from repro.txn.undo import UndoRecord


class TxnState(enum.Enum):
    """Lifecycle of a transaction context.

    ``PREPARED`` is the two-phase-commit half-state: the transaction's
    redo stream is durable under a global id but the commit/abort
    decision has not been applied yet.  A prepared transaction still
    occupies the active-transactions table (pinning the GC horizon and
    blocking conflicting writers) until it resolves.
    """

    ACTIVE = "active"
    PREPARED = "prepared"
    COMMITTED = "committed"
    ABORTED = "aborted"


#: Serialises installing a waiter's ``Event``: only ``wait_durable`` on a
#: transaction that is not yet durable ever takes it.
_EVENT_LOCK = threading.Lock()


class DurabilitySignal:
    """The commit→durable handshake of a transaction (Section 3.4).

    The state is a plain flag plus, on demand, a callback list and a
    ``threading.Event``: a transaction nobody waits on or registers a
    callback with allocates neither.  The class attributes below are the
    defaults, so a subclass needs no ``__init__`` call for them.

    Lost wake-ups are ruled out by ordering alone: ``signal_durable`` sets
    the flag *before* it looks for an Event, and ``wait_durable`` installs
    the Event *before* it looks at the flag again.  Whichever side acts
    second sees the other's write.
    """

    _durable = False
    _durable_event: threading.Event | None = None
    _durability_callbacks: list[Callable[[], None]] | None = None

    def on_durable(self, callback: Callable[[], None]) -> None:
        """Register a callback to run once the commit is persistent.

        The DBMS refrains from sending results to the client until then;
        tests use this to assert the speculative-visibility rule.
        """
        if self._durable:
            callback()
        elif self._durability_callbacks is None:
            self._durability_callbacks = [callback]
        else:
            self._durability_callbacks.append(callback)

    def signal_durable(self) -> None:
        """Invoked by the log manager after fsync covers the commit record.

        Callbacks are isolated from each other: one raising does not stop
        the rest from running.  The first failure is re-raised afterwards
        so the caller can observe it.
        """
        self._durable = True
        event = self._durable_event
        if event is not None:
            event.set()
        callbacks = self._durability_callbacks
        if callbacks is None:
            return
        self._durability_callbacks = None
        first_error: BaseException | None = None
        for callback in callbacks:
            try:
                callback()
            except Exception as exc:
                if first_error is None:
                    first_error = exc
        if first_error is not None:
            raise first_error

    def wait_durable(self, timeout: float | None = None) -> bool:
        """Block until the transaction's commit record is persistent.

        The wait is charged to ``wal.fsync_wait`` on the surrounding
        service request (if any): with group commit running in the
        background this is pure fsync latency on the request's critical
        path, and the breakdown must say so.
        """
        if self._durable:
            return True
        event = self._durable_event
        if event is None:
            with _EVENT_LOCK:
                if self._durable_event is None:
                    self._durable_event = threading.Event()
                event = self._durable_event
        # A signal that looked for the Event before it was installed has
        # already set the flag.
        if self._durable:
            return True
        with stamp_phase("wal.fsync_wait"):
            return event.wait(timeout)

    @property
    def is_durable(self) -> bool:
        """Whether the log manager has persisted the commit record."""
        return self._durable


class TransactionContext(DurabilitySignal):
    """Everything the engine knows about one running transaction.

    Version deltas live *here*, in the undo buffer, external to Arrow
    storage (Section 3.1); the version-pointer column points into it.
    The log manager fires its durability signal after the commit record
    reaches "disk" (Section 3.4's callback scheme).
    """

    def __init__(self, start_ts: int, txn_id: int) -> None:
        #: Start timestamp: the snapshot this transaction reads.
        self.start_ts = start_ts
        #: Flagged (sign-bit) id stamped on records while in flight.
        self.txn_id = txn_id
        #: Commit timestamp, set inside the commit critical section.
        self.commit_ts: int | None = None
        #: ``perf_counter()`` at begin (0.0 while observability is off);
        #: commit/abort derive the whole-transaction latency the flight
        #: recorder's slow-transaction captures threshold on.
        self.began_at = 0.0
        #: Undo records in write order; abort applies them newest first.
        self.undo_buffer: list[UndoRecord] = []
        #: Redo records in write order: what the log manager writes.
        self.redo_buffer: list[RedoRecord] = []
        self.state = TxnState.ACTIVE
        #: Set when a conflict forces this transaction to abort.
        self.must_abort = False
        #: Global transaction id, set when this context becomes a 2PC
        #: participant at prepare time; ``None`` for local transactions.
        self.gid: str | None = None
        #: Compensation actions run (newest first) if the transaction
        #: aborts; used by index maintenance to undo staged entries.
        self.abort_actions: list[Callable[[], None]] = []
        #: Installed by the transaction manager; called before every write
        #: so degraded read-only mode can reject new writers at the source
        #: (see :class:`repro.errors.DegradedError`).
        self.write_gate: Callable[[], None] | None = None

    @property
    def is_read_only(self) -> bool:
        """True when the transaction has nothing to log: no redo records
        (bulk-placed rows have redo records but no undo records)."""
        return len(self.redo_buffer) == 0

    @property
    def is_active(self) -> bool:
        """Whether the transaction can still read and write."""
        return self.state is TxnState.ACTIVE

    def ensure_writable(self) -> None:
        """Raise :class:`~repro.errors.DegradedError` when writes are barred.

        Called by the Data Table write paths; a no-op until the transaction
        manager installs a gate (it always does) and the engine degrades.
        """
        gate = self.write_gate
        if gate is not None:
            gate()

    def __repr__(self) -> str:
        return (
            f"TransactionContext(start={self.start_ts}, state={self.state.value}, "
            f"writes={len(self.undo_buffer)})"
        )
