"""The freeze path through the one varlen decoder.

``gather_block`` and ``dictionary_compress_block`` decode every entry
region with ``storage.varlen.decode_entries`` — the kernel the hot
materializer uses.  On seeded blocks (NULLs, inline and out-of-line
values, entries pointing into a previous freeze's buffer) a gathered
block must encode to exactly the bytes of the row-wise oracle — one
``select`` per slot, then ``rows_to_record_batch`` — and the dictionary
variant must decode to the same values.  A corrupt entry fails both
passes with the block untouched, and a freeze leaves no heap bytes behind,
not even those of deleted slots past the live prefix.
"""

import random

import numpy as np
import pytest

from repro import FLOAT64, INT64, UTF8, ColumnSpec, Database
from repro.arrowfmt import ipc
from repro.arrowfmt.datatypes import BINARY
from repro.errors import StorageError
from repro.storage.constants import VARLEN_INLINE_LIMIT, BlockState
from repro.storage.data_table import rowwise_scan
from repro.storage.tuple_slot import TupleSlot
from repro.storage.varlen import ENTRY_DTYPE
from repro.transform.arrow_view import (
    block_to_record_batch,
    frozen_batch,
    rows_to_record_batch,
)
from repro.transform.dictionary import dictionary_compress_block
from repro.transform.gather import gather_block, live_prefix_length

COLUMNS = [
    ColumnSpec("id", INT64),
    ColumnSpec("amount", FLOAT64),
    ColumnSpec("note", UTF8),
    ColumnSpec("blob", BINARY),
]
NOTE, BLOB = 2, 3
PASSES = {"gather": gather_block, "dictionary": dictionary_compress_block}


def varlen_value(rng: random.Random, column_id: int):
    if rng.random() < 0.2:
        return None
    # Few distinct values, so dictionaries deduplicate.
    length = rng.choice([0, 3, VARLEN_INLINE_LIMIT, VARLEN_INLINE_LIMIT + 1, 40])
    tag = rng.randrange(4)
    if column_id == NOTE:
        return ("é✓" + str(tag) * length)[:length]
    return bytes([tag]) * length


class Seeded:
    """Two full blocks and a partial one; fixed columns never NULL, so
    the oracle's zeroed NULL slots cannot differ from block bytes."""

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        self.db = Database(logging_enabled=False)
        self.table = self.db.create_table("t", COLUMNS, block_size=1 << 13).table
        with self.db.transaction() as txn:
            for i in range(self.table.layout.num_slots * 2 + 50):
                self.table.insert(txn, self.row(i))
        self.db.gc.run_until_quiet()

    def row(self, i: int) -> dict:
        return {
            0: i,
            1: self.rng.uniform(-1e6, 1e6),
            NOTE: varlen_value(self.rng, NOTE),
            BLOB: varlen_value(self.rng, BLOB),
        }

    def freeze(self, run) -> None:
        for block in self.table.blocks:
            block.set_state(BlockState.FREEZING)
            run(block)
            block.set_state(BlockState.FROZEN)

    def rewrite(self) -> None:
        """Reheat every block: update varlen values (old entries point into
        the gathered buffer) and delete a tail, keeping the prefix dense."""
        with self.db.transaction() as txn:
            for block in self.table.blocks:
                n = live_prefix_length(block)
                for offset in self.rng.sample(range(n), n // 4):
                    column_id = self.rng.choice([NOTE, BLOB])
                    self.table.update(
                        txn,
                        TupleSlot(block.block_id, offset),
                        {column_id: varlen_value(self.rng, column_id)},
                    )
                for offset in range(n - 3, n):
                    self.table.delete(txn, TupleSlot(block.block_id, offset))
        self.db.gc.run_until_quiet()

    def oracle(self, block):
        txn = self.db.begin()
        try:
            rows = [row.to_dict() for _, row in rowwise_scan(self.table, txn, blocks=[block])]
        finally:
            self.db.txn_manager.commit(txn)
        return rows_to_record_batch(self.table.layout, rows)

    def pinned_batch(self, block):
        assert block.begin_frozen_read()
        try:
            return frozen_batch(block)
        finally:
            block.end_frozen_read()


@pytest.mark.parametrize("seed", range(4))
def test_gathered_blocks_encode_like_the_row_oracle(seed):
    seeded = Seeded(seed)
    for _ in range(2):  # freeze, update, refreeze
        seeded.freeze(gather_block)
        for block in seeded.table.blocks:
            expected = ipc.write_batch(seeded.oracle(block))
            assert ipc.write_batch(seeded.pinned_batch(block)) == expected
            assert all(not heap for heap in block.varlen_heaps.values())
        assert seeded.db.verify_integrity().ok
        seeded.rewrite()


@pytest.mark.parametrize("seed", range(4))
def test_dictionary_blocks_decode_to_the_row_oracle(seed):
    seeded = Seeded(seed)
    for _ in range(2):
        seeded.freeze(dictionary_compress_block)
        for block in seeded.table.blocks:
            expected = seeded.oracle(block)
            batch = block_to_record_batch(block)
            for spec in COLUMNS:
                assert batch.column(spec.name).to_pylist() == expected.column(
                    spec.name
                ).to_pylist()
            codes, words = block.dictionaries[NOTE]
            assert words == sorted(set(words))
        assert seeded.db.verify_integrity().ok
        seeded.rewrite()


class TestCorruptEntries:
    """Both passes keep the decoder's checks and raise before writing."""

    def setup_method(self):
        self.db = Database(logging_enabled=False)
        self.table = self.db.create_table(
            "t", [ColumnSpec("id", INT64), ColumnSpec("s", UTF8)]
        ).table
        with self.db.transaction() as txn:
            for i in range(3):
                self.table.insert(txn, {0: i, 1: f"an out-of-line value {i}"})
        self.block = self.table.blocks[0]
        self.block.set_state(BlockState.FREEZING)
        self.entries = self.block.varlen_region_view(1)[: 3 * 16].view(ENTRY_DTYPE)

    def assert_raises_untouched(self, run, match):
        region = self.block.varlen_region_view(1).copy()
        heap_ids = self.block.varlen_heaps[1].live_ids()
        with pytest.raises(StorageError, match=match):
            run(self.block)
        assert np.array_equal(self.block.varlen_region_view(1), region)
        assert self.block.varlen_heaps[1].live_ids() == heap_ids

    @pytest.mark.parametrize("run", PASSES.values(), ids=PASSES.keys())
    def test_negative_size(self, run):
        self.entries["size"][1] = -5
        self.assert_raises_untouched(run, "negative size")

    @pytest.mark.parametrize("run", PASSES.values(), ids=PASSES.keys())
    def test_gathered_reference_past_the_buffer(self, run):
        self.block.gathered[1] = (np.zeros(2, np.int32), np.zeros(10, np.uint8))
        self.entries["pointer"][2] = -1
        self.assert_raises_untouched(run, "shorter")


def test_freeze_frees_heap_values_past_the_live_prefix():
    # 25-byte strings, every third row deleted: the compaction group's
    # partial block keeps deleted tuples past its live prefix.
    db = Database(logging_enabled=False, cold_threshold_epochs=1)
    info = db.create_table(
        "t", [ColumnSpec("id", INT64), ColumnSpec("s", UTF8)],
        block_size=1 << 14, watch_cold=True,
    )
    table = info.table
    with db.transaction() as txn:
        slots = [table.insert(txn, {0: i, 1: f"value-{i:019d}"}) for i in range(3000)]
    with db.transaction() as txn:
        for slot in slots[::3]:
            table.delete(txn, slot)
    db.freeze_table("t")
    db.gc.run_until_quiet()
    # Every full block freezes; the last, still-filling one stays hot.
    frozen = [b for b in table.blocks if b.state is BlockState.FROZEN]
    assert len(frozen) == len(table.blocks) - 1
    partial = [b for b in frozen if live_prefix_length(b) < b.insert_head]
    assert partial
    assert all(len(b.varlen_heaps[1]) == 0 for b in frozen)
    assert db.verify_integrity().ok

    # Reheat: a compaction move into a slot past the prefix must not free
    # the (already freed) stale value a second time.
    block = partial[0]
    n = live_prefix_length(block)
    with db.transaction() as txn:
        table.insert_into(txn, TupleSlot(block.block_id, n), {0: -1, 1: "moved in, over twelve"})
    assert block.state is BlockState.HOT
    assert len(block.varlen_heaps[1]) == 1
    assert db.verify_integrity().ok
    reader = db.begin()
    assert sorted(row.get(0) for _, row in table.scan(reader)) == [-1] + [
        i for i in range(3000) if i % 3
    ]
    db.txn_manager.commit(reader)
    db.freeze_table("t")
    db.gc.run_until_quiet()
    assert block.state is BlockState.FROZEN
    frozen = [b for b in table.blocks if b.state is BlockState.FROZEN]
    assert all(len(b.varlen_heaps[1]) == 0 for b in frozen)
    assert db.verify_integrity().ok
