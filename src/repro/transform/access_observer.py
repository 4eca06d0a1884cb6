"""Cold-block detection from GC epochs (Section 4.2).

Collecting access statistics on the transaction critical path is too
expensive for OLTP, so the observer rides along with the garbage collector:
every GC pass reports which blocks had undo records processed, and the GC
invocation count ("GC epoch") stands in for wall-clock time.  A block that
stays HOT and unmodified for ``threshold_epochs`` passes is queued for
transformation.  Mistakes are tolerable — a block misidentified as cold is
either preempted out of COOLING by the updating transaction or bounced off
the version-pointer scan before freezing.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import TYPE_CHECKING

from repro.storage.constants import BlockState

if TYPE_CHECKING:
    from repro.storage.block import RawBlock
    from repro.storage.data_table import DataTable


class TransformQueue:
    """FIFO of blocks awaiting transformation; de-duplicates entries."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._queue: deque["tuple[DataTable, RawBlock]"] = deque()
        self._enqueued: set[int] = set()

    def push(self, table: "DataTable", block: "RawBlock") -> bool:
        """Enqueue unless the block is already pending."""
        with self._lock:
            if block.block_id in self._enqueued:
                return False
            self._enqueued.add(block.block_id)
            self._queue.append((table, block))
            return True

    def drain(self) -> "list[tuple[DataTable, RawBlock]]":
        """Pop everything currently queued."""
        with self._lock:
            items = list(self._queue)
            self._queue.clear()
            self._enqueued.clear()
            return items

    def __len__(self) -> int:
        """Current depth, read under the lock (surfaced as the
        ``transform.queue_depth`` gauge / ``transform_queue_depth`` metric)."""
        with self._lock:
            return len(self._queue)


class AccessObserver:
    """Tracks block modification epochs and queues cooled-down blocks.

    ``threshold_epochs`` maps the paper's 10 ms threshold onto GC epochs:
    with a ~10 ms GC period, one epoch ≈ the paper's aggressive setting.
    """

    def __init__(self, threshold_epochs: int = 1, registry=None, recorder=None) -> None:
        if threshold_epochs < 1:
            raise ValueError("threshold must be at least one epoch")
        self.threshold_epochs = threshold_epochs
        self.queue = TransformQueue()
        self._lock = threading.Lock()
        #: Tables whose blocks this observer watches (None = watch nothing
        #: until tables register; modification events still update epochs).
        self._tables: "list[DataTable]" = []
        self._block_tables: "dict[int, DataTable]" = {}
        self.blocks_queued = 0
        from repro.obs.recorder import get_recorder
        from repro.obs.registry import MetricRegistry

        self.recorder = recorder if recorder is not None else get_recorder()
        self.registry = registry if registry is not None else MetricRegistry()
        self._m_blocks_queued = self.registry.counter(
            "transform.blocks_queued_total", "blocks detected cold and enqueued"
        )

    def watch_table(self, table: "DataTable") -> None:
        """Start considering ``table``'s blocks for transformation.

        The paper targets only tables that generate cold data (Section 6.1
        watches ORDER, ORDER_LINE, HISTORY, and ITEM).
        """
        with self._lock:
            self._tables.append(table)

    # ------------------------------------------------------------------ #
    # GarbageCollector's AccessObserver protocol                          #
    # ------------------------------------------------------------------ #

    def observe_modification(self, block: "RawBlock", epoch: int) -> None:
        """Record a modification (the GC already stamped the block)."""
        block.last_modified_epoch = epoch

    def on_gc_pass(self, epoch: int) -> None:
        """Scan watched tables and enqueue blocks that cooled down."""
        with self._lock:
            tables = list(self._tables)
        for table in tables:
            for block in list(table.blocks):
                if self._is_cold(table, block, epoch):
                    if self.queue.push(table, block):
                        self.blocks_queued += 1
                        self._m_blocks_queued.inc()
                        self.recorder.record(
                            "block.queued_cold",
                            block_id=block.block_id,
                            table=table.name,
                            last_modified_epoch=block.last_modified_epoch,
                            gc_epoch=epoch,
                            idle_epochs=epoch - block.last_modified_epoch,
                        )

    def _is_cold(self, table: "DataTable", block: "RawBlock", epoch: int) -> bool:
        if block.state is not BlockState.HOT:
            return False
        if block is table._insertion_block and not self._full(block):
            # Blocks still accepting inserts are hot by definition.
            return False
        return epoch - block.last_modified_epoch >= self.threshold_epochs

    @staticmethod
    def _full(block: "RawBlock") -> bool:
        return block.insert_head >= block.layout.num_slots
