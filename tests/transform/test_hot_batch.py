"""The hot-block materializer against the row-wise oracle.

``hot_batch`` reads a hot block block-at-a-time (one latched copy, version
chains walked only where they exist, numpy gathers).  Under the same
snapshot it must encode to exactly the bytes of the row-wise path — one
``DataTable.select`` per slot, then ``rows_to_record_batch`` — so NULL
fixed slots are zero and a column without NULLs has no validity buffer.
The histories below are seeded and random, and each one covers NULL and
non-NULL values, inline (≤ 12 B) and heap (> 12 B) varlen values,
gathered-pointer entries in reheated blocks, committed, aborted,
post-snapshot and uncommitted updates/deletes/inserts.
"""

import random

import numpy as np
import pytest

from repro import BOOL, FLOAT64, INT16, INT64, UTF8, ColumnSpec, Database
from repro.arrowfmt import ipc
from repro.arrowfmt.datatypes import BINARY
from repro.errors import StorageError
from repro.storage.constants import VARLEN_INLINE_LIMIT, BlockState
from repro.storage.data_table import rowwise_scan
from repro.storage.varlen import ENTRY_DTYPE
from repro.transform.arrow_view import hot_batch, rows_to_record_batch

COLUMNS = [
    ColumnSpec("id", INT64),
    ColumnSpec("amount", FLOAT64),
    ColumnSpec("flag", BOOL),
    ColumnSpec("small", INT16),
    ColumnSpec("note", UTF8),
    ColumnSpec("blob", BINARY),
]
NOTE, BLOB = 4, 5


def random_value(rng: random.Random, column_id: int):
    if rng.random() < 0.15:
        return None
    if column_id == 1:
        return rng.uniform(-1e6, 1e6)
    if column_id == 2:
        return rng.random() < 0.5
    if column_id == 3:
        return rng.randint(-30000, 30000)
    length = rng.choice([0, 3, VARLEN_INLINE_LIMIT, VARLEN_INLINE_LIMIT + 1, 40])
    if column_id == NOTE:
        return "".join(rng.choice("aé✓z") for _ in range(length))
    return bytes(rng.randrange(256) for _ in range(length))


def random_row(rng: random.Random, row_id: int) -> dict:
    return {0: row_id, **{c: random_value(rng, c) for c in range(1, len(COLUMNS))}}


def random_delta(rng: random.Random) -> dict:
    columns = rng.sample(range(1, len(COLUMNS)), rng.randint(1, 3))
    return {c: random_value(rng, c) for c in columns}


def oracle_batch(table, block, txn):
    """The row-wise reference: one select per slot, then builders."""
    rows = [row.to_dict() for _, row in rowwise_scan(table, txn, blocks=[block])]
    return rows_to_record_batch(table.layout, rows)


def assert_identical(table, block, txn):
    expected = ipc.write_batch(oracle_batch(table, block, txn))
    assert ipc.write_batch(hot_batch(block, txn)) == expected


class History:
    """One seeded random history over a six-column table."""

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        self.db = Database(logging_enabled=False, cold_threshold_epochs=1)
        self.table = self.db.create_table(
            "t", COLUMNS, block_size=1 << 13, watch_cold=True
        ).table
        self.slots = []
        self.next_id = 0

    def txn(self, ops: int, commit: bool = True):
        """Random updates/deletes/inserts in one transaction."""
        txn = self.db.begin()
        for _ in range(ops):
            kind = self.rng.random()
            if kind < 0.2 or not self.slots:
                self.slots.append(self.table.insert(txn, random_row(self.rng, self.next_id)))
                self.next_id += 1
            elif kind < 0.35:
                slot = self.slots.pop(self.rng.randrange(len(self.slots)))
                if not self.table.delete(txn, slot):
                    break
            elif not self.table.update(
                txn, self.rng.choice(self.slots), random_delta(self.rng)
            ):
                break
        if commit and not txn.must_abort:
            self.db.txn_manager.commit(txn)
        elif commit:
            self.db.txn_manager.abort(txn)
        return txn

    def build(self):
        layout = self.table.layout
        with self.db.transaction() as txn:
            for _ in range(int(layout.num_slots * 2.5)):
                self.slots.append(self.table.insert(txn, random_row(self.rng, self.next_id)))
                self.next_id += 1
        self.db.freeze_table("t")
        assert any(b.state is BlockState.FROZEN for b in self.table.blocks)
        # Reheat: the first write to a frozen block leaves its other entries
        # pointing into the stale gathered buffer.
        self.txn(12)
        self.db.gc.run()
        self.txn(25)
        # The slot list tracks committed state only: restore it after
        # transactions that never commit.
        committed = list(self.slots)
        self.db.txn_manager.abort(self.txn(8, commit=False))
        self.slots = list(committed)
        snapshot = self.db.begin()
        self.txn(15)  # committed after the snapshot began
        committed = list(self.slots)
        writers = [self.txn(10, commit=False) for _ in range(2)]
        self.slots = committed
        return snapshot, writers


def gathered_entries(block, column_id: int) -> int:
    n = block.insert_head
    region = block.varlen_region_view(column_id)[: n * 16].view(ENTRY_DTYPE)
    valid = block.validity_bitmaps[column_id].to_numpy()[:n]
    out_of_line = valid & (region["size"] > VARLEN_INLINE_LIMIT)
    return int((out_of_line & (region["pointer"] < 0)).sum())


@pytest.mark.parametrize("seed", range(8))
def test_hot_batch_is_byte_identical_to_the_rowwise_path(seed):
    history = History(seed)
    snapshot, writers = history.build()
    hot = [b for b in history.table.blocks if b.state is BlockState.HOT]
    assert hot
    chained = reheated = 0
    for block in hot:
        assert_identical(history.table, block, snapshot)
        chained += sum(p is not None for p in block.version_ptrs)
        reheated += gathered_entries(block, NOTE) + gathered_entries(block, BLOB)
    assert chained and reheated  # the history exercised chains and reheats
    for writer in writers:
        if writer.is_active:
            history.db.txn_manager.abort(writer)
    history.db.txn_manager.commit(snapshot)


def test_fully_deleted_and_empty_blocks():
    history = History(99)
    table = history.table
    with history.db.transaction() as txn:
        for _ in range(table.layout.num_slots + 5):
            history.slots.append(table.insert(txn, random_row(history.rng, history.next_id)))
            history.next_id += 1
    first = table.blocks[0]
    with history.db.transaction() as txn:
        for slot in history.slots:
            if slot.block_id == first.block_id:
                table.delete(txn, slot)
    reader = history.db.begin()
    assert hot_batch(first, reader).num_rows == 0
    assert_identical(table, first, reader)
    empty = table.block_store.allocate(table.layout)
    assert hot_batch(empty, reader).num_rows == 0
    assert ipc.write_batch(hot_batch(empty, reader)) == ipc.write_batch(
        rows_to_record_batch(table.layout, [])
    )
    table.block_store.release(empty)
    history.db.txn_manager.commit(reader)


def test_no_nulls_means_no_validity_buffer():
    db = Database(logging_enabled=False)
    table = db.create_table("t", [ColumnSpec("id", INT64), ColumnSpec("s", UTF8)]).table
    with db.transaction() as txn:
        for i in range(50):
            table.insert(txn, {0: i, 1: f"value-{i}" * (i % 3)})
    reader = db.begin()
    batch = hot_batch(table.blocks[0], reader)
    assert all(column.validity is None for column in batch.columns)
    assert batch.column("s").to_pylist() == [f"value-{i}" * (i % 3) for i in range(50)]
    db.txn_manager.commit(reader)


class TestCorruptionIsDetected:
    """The vectorized reader keeps the per-entry checks of ``decode_entry``."""

    def setup_method(self):
        self.db = Database(logging_enabled=False)
        self.table = self.db.create_table(
            "t", [ColumnSpec("id", INT64), ColumnSpec("s", UTF8)]
        ).table
        with self.db.transaction() as txn:
            self.slot = self.table.insert(txn, {0: 1, 1: "an out-of-line value"})
        self.block = self.table.blocks[0]
        self.entry = self.block.varlen_region_view(1)[:16].view(ENTRY_DTYPE)

    def read(self):
        reader = self.db.begin()
        try:
            return hot_batch(self.block, reader)
        finally:
            self.db.txn_manager.commit(reader)

    def test_negative_size(self):
        self.entry["size"] = -5
        with pytest.raises(StorageError, match="negative size"):
            self.read()

    def test_dangling_heap_id(self):
        self.block.varlen_heaps[1].free(int(self.entry["pointer"][0]))
        with pytest.raises(StorageError, match="dangling"):
            self.read()

    def test_heap_bytes_not_matching_the_entry_size(self):
        self.entry["size"] = 19
        with pytest.raises(StorageError, match="entry sizes"):
            self.read()

    def test_gathered_pointer_without_a_gathered_buffer(self):
        self.entry["pointer"] = -1
        with pytest.raises(StorageError, match="absent"):
            self.read()

    def test_gathered_pointer_past_the_buffer(self):
        self.block.gathered[1] = (np.zeros(2, np.int32), np.zeros(10, np.uint8))
        self.entry["pointer"] = -1
        with pytest.raises(StorageError, match="shorter"):
            self.read()
