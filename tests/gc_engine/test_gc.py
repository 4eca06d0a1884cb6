"""Tests for the two-phase garbage collector and epoch protection."""

import gc as cyclic_gc
import weakref

import pytest

from repro import Database

from repro.arrowfmt.datatypes import INT64, UTF8
from repro.gc_engine.collector import GarbageCollector
from repro.gc_engine.epoch import DeferredActionQueue
from repro.storage.block_store import BlockStore
from repro.storage.data_table import DataTable
from repro.storage.layout import BlockLayout, ColumnSpec
from repro.txn.manager import TransactionManager


@pytest.fixture
def tm():
    return TransactionManager()


@pytest.fixture
def table():
    layout = BlockLayout([ColumnSpec("id", INT64), ColumnSpec("s", UTF8)])
    return DataTable(BlockStore(), layout, "t")


LONG = "a long out-of-line value well over twelve bytes"
LONGER = "another long out-of-line value, even longer than the first"


class TestDeferredActionQueue:
    def test_runs_strictly_before_horizon(self):
        queue = DeferredActionQueue()
        fired = []
        queue.register(5, lambda: fired.append(5))
        queue.register(10, lambda: fired.append(10))
        queue.process(6)
        assert fired == [5]
        queue.process(11)
        assert fired == [5, 10]

    def test_equal_timestamp_not_run(self):
        queue = DeferredActionQueue()
        fired = []
        queue.register(5, lambda: fired.append(5))
        queue.process(5)
        assert fired == []

    def test_order_within_timestamp_is_fifo(self):
        queue = DeferredActionQueue()
        fired = []
        queue.register(1, lambda: fired.append("a"))
        queue.register(1, lambda: fired.append("b"))
        queue.process(2)
        assert fired == ["a", "b"]

    def test_len_counts_pending(self):
        queue = DeferredActionQueue()
        queue.register(1, lambda: None)
        assert len(queue) == 1
        queue.process(2)
        assert len(queue) == 0


class TestChainPruning:
    def test_prunes_invisible_versions(self, tm, table):
        txn = tm.begin()
        slot = table.insert(txn, {0: 1, 1: "x"})
        tm.commit(txn)
        for i in range(3):
            txn = tm.begin()
            table.update(txn, slot, {0: i})
            tm.commit(txn)
        gc = GarbageCollector(tm)
        gc.run()
        block = table.blocks[0]
        assert block.version_ptrs[slot.offset] is None
        assert gc.stats.records_unlinked == 4

    def test_does_not_prune_versions_needed_by_active_txn(self, tm, table):
        txn = tm.begin()
        slot = table.insert(txn, {0: 1, 1: "old"})
        tm.commit(txn)
        reader = tm.begin()
        writer = tm.begin()
        table.update(writer, slot, {1: "new"})
        tm.commit(writer)
        gc = GarbageCollector(tm)
        gc.run()
        # The reader still needs the before-image of the update.
        assert table.select(reader, slot).get(1) == "old"
        tm.commit(reader)
        gc.run_until_quiet()
        assert table.blocks[0].version_ptrs[slot.offset] is None

    def test_aborted_records_pruned(self, tm, table):
        txn = tm.begin()
        slot = table.insert(txn, {0: 1, 1: "x"})
        tm.commit(txn)
        loser = tm.begin()
        table.update(loser, slot, {0: 9})
        tm.abort(loser)
        gc = GarbageCollector(tm)
        gc.run_until_quiet()
        assert table.blocks[0].version_ptrs[slot.offset] is None

    def test_stats_accumulate(self, tm, table):
        for i in range(3):
            txn = tm.begin()
            table.insert(txn, {0: i, 1: "v"})
            tm.commit(txn)
        gc = GarbageCollector(tm)
        gc.run()
        assert gc.stats.transactions_processed == 3
        assert gc.stats.passes == 1


class TestTransactionLifetime:
    def test_collected_transactions_are_freed_by_reference_counting(self):
        db = Database()
        table = db.create_table("t", [ColumnSpec("id", INT64), ColumnSpec("s", UTF8)]).table
        was_enabled = cyclic_gc.isenabled()
        cyclic_gc.disable()
        try:
            refs = []
            with db.transaction() as txn:
                slot = table.insert(txn, {0: 1, 1: LONG})
            refs.append(weakref.ref(txn))
            with db.transaction() as txn:
                table.update(txn, slot, {1: LONGER})
            refs.append(weakref.ref(txn))
            txn = db.begin()
            table.delete(txn, slot)
            db.abort(txn)
            refs.append(weakref.ref(txn))
            del txn
            db.gc.run_until_quiet()
            assert [ref() for ref in refs] == [None, None, None]
        finally:
            if was_enabled:
                cyclic_gc.enable()


class TestVarlenReclamation:
    def test_committed_update_frees_old_value_one_epoch_later(self, tm, table):
        txn = tm.begin()
        slot = table.insert(txn, {0: 1, 1: LONG})
        tm.commit(txn)
        block = table.blocks[0]
        heap = block.varlen_heaps[1]
        assert len(heap) == 1
        txn = tm.begin()
        table.update(txn, slot, {1: LONGER})
        tm.commit(txn)
        assert len(heap) == 2  # old value still referenced by the undo chain
        gc = GarbageCollector(tm)
        gc.run()  # unlink pass registers the deferred free
        gc.run()  # next pass executes it (horizon has advanced)
        assert len(heap) == 1
        assert heap.bytes_used == len(LONGER.encode())

    def test_aborted_update_frees_loser_value_immediately(self, tm, table):
        txn = tm.begin()
        slot = table.insert(txn, {0: 1, 1: LONG})
        tm.commit(txn)
        heap = table.blocks[0].varlen_heaps[1]
        loser = tm.begin()
        table.update(loser, slot, {1: LONGER})
        assert len(heap) == 2
        tm.abort(loser)
        assert len(heap) == 1
        # And GC must not double-free the survivor.
        gc = GarbageCollector(tm)
        gc.run_until_quiet()
        assert len(heap) == 1

    def test_inline_values_never_touch_heap(self, tm, table):
        txn = tm.begin()
        slot = table.insert(txn, {0: 1, 1: "short"})
        tm.commit(txn)
        txn = tm.begin()
        table.update(txn, slot, {1: "tiny"})
        tm.commit(txn)
        gc = GarbageCollector(tm)
        gc.run_until_quiet()
        assert len(table.blocks[0].varlen_heaps[1]) == 0


class TestAccessObservation:
    def test_observer_sees_modified_blocks(self, tm, table):
        observations = []

        class Observer:
            def observe_modification(self, block, epoch):
                observations.append((block.block_id, epoch))

            def on_gc_pass(self, epoch):
                observations.append(("pass", epoch))

        txn = tm.begin()
        table.insert(txn, {0: 1, 1: "x"})
        tm.commit(txn)
        gc = GarbageCollector(tm, access_observer=Observer())
        gc.run()
        block_id = table.blocks[0].block_id
        assert (block_id, 1) in observations
        assert ("pass", 1) in observations
        assert table.blocks[0].last_modified_epoch == 1


class TestConcurrentReaders:
    def test_reads_correct_under_concurrent_gc(self, tm, table):
        import threading

        txn = tm.begin()
        slots = [table.insert(txn, {0: i, 1: LONG}) for i in range(30)]
        tm.commit(txn)
        for round_no in range(2):
            txn = tm.begin()
            for slot in slots:
                table.update(txn, slot, {0: round_no, 1: LONGER + str(round_no)})
            tm.commit(txn)
        gc = GarbageCollector(tm)
        errors = []

        def reader_thread():
            try:
                for _ in range(20):
                    txn = tm.begin()
                    for slot in slots:
                        assert table.select(txn, slot).to_dict() == {
                            0: 1, 1: LONGER + "1"
                        }
                    tm.commit(txn)
            except BaseException as exc:  # surfaced to the main thread
                errors.append(exc)

        def gc_thread():
            try:
                for _ in range(6):
                    gc.run()
            except BaseException as exc:
                errors.append(exc)

        threads = [threading.Thread(target=reader_thread) for _ in range(3)]
        threads.append(threading.Thread(target=gc_thread))
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
        assert not errors
        for _ in range(2):  # readers gone: the rest of every chain goes
            gc.run()
        assert all(table.blocks[0].version_ptrs[s.offset] is None for s in slots)
