"""Tests for RawBlock: state machine, reader counter, slot allocation."""

import threading

import pytest

from repro.arrowfmt.datatypes import INT64, UTF8
from repro.errors import BlockStateError, StorageError
from repro.storage.block import RawBlock
from repro.storage.block_store import BlockStore
from repro.storage.constants import BlockState
from repro.storage.layout import BlockLayout, ColumnSpec


@pytest.fixture
def layout():
    return BlockLayout([ColumnSpec("id", INT64), ColumnSpec("name", UTF8)])


@pytest.fixture
def block(layout):
    return RawBlock(layout, block_id=0)


class TestStateMachine:
    def test_blocks_start_hot(self, block):
        assert block.state is BlockState.HOT

    def test_cas_success_and_failure(self, block):
        assert block.compare_and_swap_state(BlockState.HOT, BlockState.COOLING)
        assert block.state is BlockState.COOLING
        assert not block.compare_and_swap_state(BlockState.HOT, BlockState.FREEZING)

    def test_user_txn_preempts_cooling(self, block):
        # Section 4.3: transactions may CAS cooling back to hot.
        block.set_state(BlockState.COOLING)
        block.touch_hot()
        assert block.state is BlockState.HOT

    def test_touch_hot_on_frozen_waits_for_readers(self, block):
        block.set_state(BlockState.FROZEN)
        assert block.begin_frozen_read()
        done = threading.Event()

        def writer():
            block.touch_hot()
            done.set()

        thread = threading.Thread(target=writer)
        thread.start()
        # The writer has flipped the flag but must wait for us.
        assert not done.wait(0.05)
        block.end_frozen_read()
        assert done.wait(1.0)
        thread.join()
        assert block.state is BlockState.HOT

    def test_touch_hot_noop_when_hot(self, block):
        block.touch_hot()
        assert block.state is BlockState.HOT

    def test_frozen_read_refused_when_hot(self, block):
        assert not block.begin_frozen_read()

    def test_reader_counter(self, block):
        block.set_state(BlockState.FROZEN)
        assert block.begin_frozen_read()
        assert block.begin_frozen_read()
        assert block.reader_count == 2
        block.end_frozen_read()
        block.end_frozen_read()
        assert block.reader_count == 0

    def test_unmatched_end_read_rejected(self, block):
        with pytest.raises(BlockStateError):
            block.end_frozen_read()

    def test_touch_hot_keeps_stale_gathered_buffers(self, block):
        # Relaxed entries may still point into the gathered buffer, so it
        # must survive the FROZEN -> HOT transition (it is simply stale).
        import numpy as np

        block.gathered[1] = (np.zeros(1, dtype=np.int32), np.zeros(1, dtype=np.uint8))
        block.set_state(BlockState.FROZEN)
        block.touch_hot()
        assert 1 in block.gathered


class TestSlotAllocation:
    def test_sequential_allocation(self, block):
        assert block.allocate_slot() == 0
        assert block.allocate_slot() == 1
        assert block.allocation_bitmap.get(0)

    def test_exhaustion_returns_none(self, layout):
        small = BlockLayout([ColumnSpec("id", INT64)], block_size=1 << 12)
        block = RawBlock(small, 0)
        count = 0
        while block.allocate_slot() is not None:
            count += 1
        assert count == small.num_slots
        assert block.allocate_slot() is None

    def test_deleted_slots_not_reused_without_reset(self, block):
        a = block.allocate_slot()
        block.allocate_slot()
        block.set_allocated(a, False)
        # Insert head only moves forward (recycling is compaction's job).
        assert block.allocate_slot() == 2

    def test_reset_insert_head_rescans(self, block):
        a = block.allocate_slot()
        block.allocate_slot()
        block.set_allocated(a, False)
        block.reset_insert_head()
        assert block.allocate_slot() == a

    def test_empty_and_counts(self, block):
        assert block.is_empty()
        block.allocate_slot()
        assert not block.is_empty()
        assert block.empty_slot_count() == block.layout.num_slots - 1

    def test_concurrent_allocation_unique(self, layout):
        block = RawBlock(layout, 0)
        results = []
        lock = threading.Lock()

        def worker():
            local = [block.allocate_slot() for _ in range(500)]
            with lock:
                results.extend(local)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(results) == 2000
        assert len(set(results)) == 2000


class TestViews:
    def test_fixed_column_view_is_block_memory(self, block):
        view = block.column_view(0)
        view[3] = 99
        assert block.column_view(0)[3] == 99
        assert len(view) == block.layout.num_slots

    def test_varlen_view_wrong_kind_rejected(self, block):
        with pytest.raises(StorageError):
            block.column_view(1)
        with pytest.raises(StorageError):
            block.varlen_entry_view(0, 0)

    def test_varlen_region_is_16_bytes_per_slot(self, block):
        region = block.varlen_region_view(1)
        assert len(region) == block.layout.num_slots * 16

    def test_version_column_starts_empty(self, block):
        assert not block.has_active_versions()
        block.version_ptrs[0] = object()
        assert block.has_active_versions()


class TestBlockStore:
    def test_allocate_and_get(self, layout):
        store = BlockStore()
        block = store.allocate(layout)
        assert store.get(block.block_id) is block
        assert store.live_count == 1

    def test_ids_unique(self, layout):
        store = BlockStore()
        ids = {store.allocate(layout).block_id for _ in range(10)}
        assert len(ids) == 10

    def test_release_empty_block(self, layout):
        store = BlockStore()
        block = store.allocate(layout)
        store.release(block)
        assert store.freed_count == 1
        with pytest.raises(StorageError):
            store.get(block.block_id)

    def test_release_nonempty_rejected(self, layout):
        store = BlockStore()
        block = store.allocate(layout)
        block.allocate_slot()
        with pytest.raises(StorageError):
            store.release(block)

    def test_double_release_rejected(self, layout):
        store = BlockStore()
        block = store.allocate(layout)
        store.release(block)
        with pytest.raises(StorageError):
            store.release(block)

    def test_double_release_counted_in_obs(self, layout):
        from repro.obs.registry import MetricRegistry

        reg = MetricRegistry()
        store = BlockStore(registry=reg)
        block = store.allocate(layout)
        store.release(block)
        for _ in range(2):
            with pytest.raises(StorageError):
                store.release(block)
        assert reg.counter("storage.block_double_free_total").value == 2
        assert store.freed_count == 1  # double frees never inflate the count

    def test_stale_handle_cannot_free_recycled_id(self, layout):
        store = BlockStore()
        stale = store.allocate(layout)
        store.release(stale)
        # A new block may reuse storage but never the identity; releasing
        # through the stale handle must not touch it.
        fresh = store.allocate(layout)
        with pytest.raises(StorageError):
            store.release(stale)
        assert store.get(fresh.block_id) is fresh
