"""The two-phase garbage collector (Section 3.3).

Because all versioning information lives in transaction-private undo
buffers, the collector only ever examines transaction objects.  Each pass:

1. computes the visibility horizon (oldest active start timestamp),
2. runs deferred deallocations whose unlink epoch has safely passed,
3. drains completed transactions below the horizon and unlinks their delta
   records from the version chains (each chain touched once), registering
   the actual memory release as a deferred action stamped with the unlink
   timestamp, and
4. reports the modifications it saw to the access observer — the free ride
   that Section 4.2 uses for cold-block detection without touching the
   transaction critical path.
"""

from __future__ import annotations

from time import perf_counter
from typing import TYPE_CHECKING, Protocol

from repro.gc_engine.epoch import DeferredActionQueue
from repro.obs import trace
from repro.obs.recorder import Recorder, get_recorder
from repro.obs.registry import STATE, MetricRegistry
from repro.storage.varlen import read_entry
from repro.txn.manager import TransactionManager
from repro.txn.undo import UndoRecord, UpdateUndoRecord

if TYPE_CHECKING:
    from repro.storage.block import RawBlock


class AccessObserver(Protocol):
    """Receiver for block-modification observations (Section 4.2)."""

    def observe_modification(self, block: "RawBlock", epoch: int) -> None:
        """Record that ``block`` was modified around GC epoch ``epoch``."""

    def on_gc_pass(self, epoch: int) -> None:
        """Hook run at the end of every GC pass."""


class GcStats:
    """Counters exposed for tests and benchmarks."""

    __slots__ = ("passes", "transactions_processed", "records_unlinked", "deferred_executed")

    def __init__(self) -> None:
        self.passes = 0
        self.transactions_processed = 0
        self.records_unlinked = 0
        self.deferred_executed = 0


class GarbageCollector:
    """Prunes version chains and frees memory behind the visibility horizon."""

    def __init__(
        self,
        txn_manager: TransactionManager,
        access_observer: AccessObserver | None = None,
        registry: MetricRegistry | None = None,
        recorder: Recorder | None = None,
    ) -> None:
        self.txn_manager = txn_manager
        self.recorder = recorder if recorder is not None else get_recorder()
        self.deferred = DeferredActionQueue()
        self.access_observer = access_observer
        self.stats = GcStats()
        #: Monotone count of GC invocations: the "GC epoch" that stands in
        #: for wall-clock time in cold-block detection.
        self.epoch = 0
        self.registry = registry if registry is not None else MetricRegistry()
        reg = self.registry
        self._m_pass_total = reg.counter("gc.pass_total", "GC passes run")
        self._m_unlinked_total = reg.counter(
            "gc.records_unlinked_total", "version records pruned from chains"
        )
        self._m_txns_total = reg.counter(
            "gc.transactions_processed_total", "completed transactions collected"
        )
        self._m_deferred_total = reg.counter(
            "gc.deferred_executed_total", "deferred deallocations executed"
        )
        self._m_deferred_errors = reg.counter(
            "gc.deferred_errors_total", "deferred deallocations that raised"
        )
        self._m_pass_seconds = reg.histogram("gc.pass_seconds", "GC pass duration")
        reg.gauge(
            "gc.deferred_pending",
            "deferred deallocations awaiting a safe epoch",
            callback=lambda: len(self.deferred),
        )
        reg.gauge("gc.epoch", "GC epoch (pass counter)", callback=lambda: self.epoch)

    def _record_pass(
        self, began: float, unlinked: int, txns: int, deferred: int
    ) -> None:
        """Registry-side accounting for one finished pass (any subclass)."""
        if not began:
            return
        self._m_pass_total.inc()
        self._m_unlinked_total.inc(unlinked)
        self._m_txns_total.inc(txns)
        self._m_deferred_total.inc(deferred)
        self._m_pass_seconds.observe(perf_counter() - began)

    def run(self) -> int:
        """One GC pass; returns the number of records unlinked."""
        began = perf_counter() if STATE.enabled else 0.0
        with trace.span("gc.pass"):
            self.epoch += 1
            horizon = self.txn_manager.oldest_active_start()
            deferred_run = self.deferred.process(horizon, on_error=self._on_deferred_error)
            self.stats.deferred_executed += deferred_run
            completed = self.txn_manager.drain_completed(horizon)
            unlinked = 0
            touched_blocks: dict[int, "RawBlock"] = {}
            from repro.errors import StorageError

            for txn in completed:
                unlink_ts = self.txn_manager.timestamps.checkpoint()
                for record in txn.undo_buffer:
                    # Breaks txn -> undo buffer -> record -> txn, so the
                    # finished transaction is freed by reference counting.
                    # A reader still on the chain needs no owner: the
                    # record is committed below every active snapshot, or
                    # aborted.
                    record.txn = None
                    try:
                        block = record.table._block(record.slot.block_id)
                    except StorageError:
                        # The block was recycled by compaction after emptying;
                        # its chains (and heaps) died with it.
                        continue
                    touched_blocks[block.block_id] = block
                    self._unlink(block, record)
                    unlinked += 1
                    action = self._deallocation_for(block, record)
                    if action is not None:
                        self.deferred.register(unlink_ts, action)
                self.stats.transactions_processed += 1
            if self.access_observer is not None:
                for block in touched_blocks.values():
                    block.last_modified_epoch = self.epoch
                    self.access_observer.observe_modification(block, self.epoch)
                self.access_observer.on_gc_pass(self.epoch)
            self.stats.passes += 1
            self.stats.records_unlinked += unlinked
        self._record_pass(began, unlinked, len(completed), deferred_run)
        if began and (unlinked or completed or deferred_run):
            # Idle passes (the background thread's common case) would only
            # flood the journal; record passes that did real work.
            self.recorder.record(
                "gc.pass",
                epoch=self.epoch,
                unlinked=unlinked,
                txns=len(completed),
                deferred=deferred_run,
                duration_seconds=perf_counter() - began,
            )
        return unlinked

    def _on_deferred_error(self, exc: BaseException) -> None:
        self._m_deferred_errors.inc()

    def run_until_quiet(self, max_passes: int = 16) -> None:
        """Run passes until nothing remains to unlink or defer (tests)."""
        for _ in range(max_passes):
            self.run()
            if (
                self.txn_manager.pending_gc_count == 0
                and len(self.deferred) == 0
            ):
                return

    def _unlink(self, block: "RawBlock", record: UndoRecord) -> None:
        """Remove one record from its chain under the block's write latch.

        Lingering traversals that already hold a reference simply continue
        on the detached suffix — Python's reference counting provides the
        use-after-free protection the paper's deallocation epoch guards.
        """
        offset = record.slot.offset
        with block.write_latch:
            head = block.version_ptrs[offset]
            if head is record:
                block.version_ptrs[offset] = record.next
                return
            node = head
            while node is not None and node.next is not record:
                node = node.next
            if node is not None:
                node.next = record.next

    def _deallocation_for(self, block: "RawBlock", record: UndoRecord):
        """Build the deferred free for a record, if it owns any memory.

        Only committed updates release varlen bytes here: their before-image
        entries became unreachable when the update overwrote the block.
        Aborted updates already freed the loser's new value during rollback,
        and deletes keep tuple contents in place until compaction recycles
        the slot.
        """
        if not isinstance(record, UpdateUndoRecord) or record.aborted:
            return None
        to_free: list[tuple[int, int]] = []
        for column_id, raw in record.before_raw.items():
            import numpy as np

            entry = read_entry(np.frombuffer(raw, dtype=np.uint8))
            if entry.owns_buffer:
                to_free.append((column_id, entry.pointer))
        if not to_free:
            return None

        def _free() -> None:
            for column_id, heap_id in to_free:
                block.varlen_heaps[column_id].free(heap_id)

        return _free
