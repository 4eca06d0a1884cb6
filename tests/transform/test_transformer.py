"""Tests for the end-to-end transformation pipeline and its baselines."""

import numpy as np
import pytest

from repro.errors import BlockStateError
from repro.storage.constants import BlockState
from repro.storage.tuple_slot import TupleSlot
from repro.transform.arrow_view import block_to_record_batch, table_schema
from repro.transform.transformer import inplace_transform, snapshot_transform

from tests.transform.conftest import MiniEngine


class TestAccessObserver:
    def test_cold_blocks_queued_after_threshold(self):
        engine = MiniEngine(threshold=2)
        engine.fill(n_blocks=2, delete_fraction=0.0)
        engine.gc.run()  # epoch 1: blocks observed as modified
        assert len(engine.observer.queue) == 0
        engine.gc.run()  # epoch 2: still within threshold
        engine.gc.run()  # epoch 3: cold now
        assert len(engine.observer.queue) >= 1

    def test_active_insertion_block_not_queued(self):
        engine = MiniEngine(threshold=1)
        txn = engine.tm.begin()
        engine.table.insert(txn, {0: 1, 1: "x"})  # partially-filled head block
        engine.tm.commit(txn)
        for _ in range(4):
            engine.gc.run()
        assert len(engine.observer.queue) == 0

    def test_queue_deduplicates(self):
        engine = MiniEngine(threshold=1)
        engine.fill(n_blocks=2, delete_fraction=0.0)
        for _ in range(5):
            engine.gc.run()
        depth = len(engine.observer.queue)
        assert depth <= len(engine.table.blocks)

    def test_unwatched_tables_ignored(self):
        engine = MiniEngine(threshold=1)
        engine.observer._tables.clear()
        engine.fill(n_blocks=2, delete_fraction=0.0)
        for _ in range(4):
            engine.gc.run()
        assert len(engine.observer.queue) == 0


class TestPipeline:
    def test_blocks_reach_frozen(self, engine):
        engine.fill(n_blocks=3, delete_fraction=0.3)
        engine.transform_all()
        states = engine.table.block_states()
        assert states[BlockState.FROZEN] >= 2
        assert states[BlockState.HOT] == 0

    def test_contents_preserved_through_pipeline(self, engine):
        engine.fill(n_blocks=3, delete_fraction=0.3)
        before = engine.visible_ids()
        engine.transform_all()
        assert engine.visible_ids() == before

    def test_empty_blocks_freed(self, engine):
        engine.fill(n_blocks=4, delete_fraction=0.5)
        initial = len(engine.table.blocks)
        engine.transform_all()
        assert engine.transformer.stats.blocks_freed >= 1
        assert len(engine.table.blocks) < initial

    def test_writes_preempt_cooling(self):
        engine = MiniEngine(threshold=1)
        slots = engine.fill(n_blocks=2, delete_fraction=0.0)
        engine.gc.run()
        engine.gc.run()
        engine.transformer.process_queue()
        cooling = [
            b for b in engine.table.blocks if b.state is BlockState.COOLING
        ]
        assert cooling
        target = cooling[0]
        txn = engine.tm.begin()
        slot = TupleSlot(target.block_id, 0)
        assert engine.table.update(txn, slot, {1: "preempting write"})
        engine.tm.commit(txn)
        assert target.state is BlockState.HOT
        frozen_now = engine.transformer.process_freeze_pending()
        assert target.state is BlockState.HOT  # pipeline abandoned it
        assert engine.transformer.stats.freezes_preempted >= 1

    def test_interloper_version_blocks_freeze(self):
        # A write that lands between compaction-commit and the freeze scan
        # leaves a version record; the scan must bounce the block.
        engine = MiniEngine(threshold=1)
        engine.fill(n_blocks=1, delete_fraction=0.0)
        engine.gc.run()
        engine.gc.run()
        engine.transformer.process_queue()
        [block] = [b for b in engine.table.blocks if b.state is BlockState.COOLING]
        txn = engine.tm.begin()
        engine.table.update(txn, TupleSlot(block.block_id, 0), {0: 999})
        engine.tm.commit(txn)
        # block got preempted to HOT by the update; freeze must not proceed
        engine.transformer.process_freeze_pending()
        assert block.state is not BlockState.FROZEN

    def test_dictionary_pipeline(self):
        engine = MiniEngine(cold_format="dictionary")
        engine.fill(n_blocks=2, delete_fraction=0.2, long_values=False)
        before = engine.visible_ids()
        engine.transform_all()
        assert engine.visible_ids() == before
        frozen = [b for b in engine.table.blocks if b.state is BlockState.FROZEN]
        assert frozen
        assert all(b.dictionaries for b in frozen)

    def test_stats_populated(self, engine):
        engine.fill(n_blocks=3, delete_fraction=0.3)
        engine.transform_all()
        stats = engine.transformer.stats
        assert stats.groups_compacted >= 1
        assert stats.blocks_frozen >= 1
        assert stats.tuples_moved > 0
        assert stats.compaction_seconds > 0
        assert stats.gather_seconds > 0


class TestArrowView:
    def frozen_engine(self):
        engine = MiniEngine()
        engine.fill(n_blocks=2, delete_fraction=0.25)
        engine.transform_all()
        frozen = [b for b in engine.table.blocks if b.state is BlockState.FROZEN]
        assert frozen
        return engine, frozen

    def test_record_batch_matches_scan(self):
        engine, frozen = self.frozen_engine()
        arrow_ids = []
        for block in frozen:
            batch = block_to_record_batch(block)
            arrow_ids.extend(batch.column("id").to_pylist())
        reader = engine.tm.begin()
        scan_ids = [r.get(0) for _, r in engine.table.scan(reader)]
        assert sorted(arrow_ids) == sorted(scan_ids)

    def test_fixed_columns_are_zero_copy(self):
        engine, frozen = self.frozen_engine()
        block = frozen[0]
        batch = block_to_record_batch(block)
        view = batch.column("id").to_numpy()
        original = block.column_view(0)[: len(view)]
        assert np.shares_memory(view, original)

    def test_requires_frozen(self):
        engine = MiniEngine()
        engine.fill(n_blocks=1, delete_fraction=0.0)
        with pytest.raises(BlockStateError):
            block_to_record_batch(engine.table.blocks[0])

    def test_schema_mapping(self):
        engine = MiniEngine()
        schema = table_schema(engine.layout)
        assert schema.names == ["id", "payload"]
        assert schema.field("payload").dtype.name == "utf8"

    def test_dictionary_view(self):
        engine = MiniEngine(cold_format="dictionary")
        engine.fill(n_blocks=1, delete_fraction=0.0, long_values=False)
        engine.transform_all()
        [block] = [b for b in engine.table.blocks if b.state is BlockState.FROZEN]
        batch = block_to_record_batch(block)
        from repro.arrowfmt.array import DictionaryArray

        assert isinstance(batch.column("payload"), DictionaryArray)
        reader = engine.tm.begin()
        scan_payloads = [r.get(1) for _, r in engine.table.scan(reader)]
        assert batch.column("payload").to_pylist() == scan_payloads


class TestBaselines:
    def test_snapshot_transform_copies_block(self):
        engine = MiniEngine()
        engine.fill(n_blocks=1, delete_fraction=0.2)
        block = engine.table.blocks[0]
        batch = snapshot_transform(engine.tm, engine.table, block)
        assert batch.num_rows == block.allocation_bitmap.count_set()
        view = batch.column("id").to_numpy()
        assert not np.shares_memory(view, block.column_view(0))

    def test_inplace_transform_pays_version_maintenance(self):
        engine = MiniEngine()
        engine.fill(n_blocks=2, delete_fraction=0.3)
        engine.gc.run_until_quiet()
        live = engine.table.live_tuple_count()
        assert inplace_transform(engine.tm, engine.table, list(engine.table.blocks))
        # Every live tuple was updated transactionally on top of the moves.
        last_txn_writes = engine.tm.pending_gc_count
        assert engine.visible_ids() == engine.visible_ids()

    def test_inplace_transform_conflict_aborts(self):
        engine = MiniEngine()
        engine.fill(n_blocks=2, delete_fraction=0.3)
        engine.gc.run_until_quiet()
        from repro.transform.compaction import plan_compaction

        plan = plan_compaction(engine.table.blocks)
        src, _ = plan.moves[0]
        user = engine.tm.begin()
        engine.table.update(user, src, {1: "hold"})
        assert not inplace_transform(engine.tm, engine.table, list(engine.table.blocks))
        engine.tm.commit(user)
