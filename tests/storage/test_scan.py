"""``DataTable.scan`` is the row view of the block walk.

It must yield exactly what the per-slot reference
(:func:`repro.storage.data_table.rowwise_scan`, one ``select`` per slot)
yields under the same snapshot: the same slots in the same order, the
same values and the same Python types (``True`` == 1 == 1.0, so types are
compared separately).
"""

import random
import threading

import pytest

from repro import INT64, UTF8, ColumnSpec, Database
from repro.storage.constants import BlockState
from repro.storage.data_table import rowwise_scan
from tests.transform.test_hot_batch import COLUMNS, NOTE, History, random_row


def typed(pairs):
    return [
        (slot, [(c, v, type(v)) for c, v in row.items()]) for slot, row in pairs
    ]


def assert_scan_is_the_reference(table, txn, column_ids=None):
    got = typed(table.scan(txn, column_ids))
    assert got
    assert got == typed(rowwise_scan(table, txn, column_ids))


def assert_unpinned(table):
    assert all(block.reader_count == 0 for block in table.blocks)


@pytest.mark.parametrize("seed", range(8))
def test_seeded_histories(seed):
    history = History(seed)
    snapshot, writers = history.build()
    table = history.table
    assert_scan_is_the_reference(table, snapshot)
    assert_scan_is_the_reference(table, snapshot, [NOTE, 0, 2])
    assert_unpinned(table)
    for writer in writers:
        if writer.is_active:
            history.db.txn_manager.abort(writer)
    history.db.txn_manager.commit(snapshot)


def frozen_table(cold_format="gather", extra_rows=0):
    """Two full blocks frozen, plus ``extra_rows`` in a hot insertion block."""
    rng = random.Random(7)
    db = Database(logging_enabled=False, cold_threshold_epochs=1, cold_format=cold_format)
    table = db.create_table("t", COLUMNS, block_size=1 << 13, watch_cold=True).table
    with db.transaction() as txn:
        slots = [
            table.insert(txn, random_row(rng, i))
            for i in range(table.layout.num_slots * 2 + extra_rows)
        ]
    db.freeze_table("t")
    return db, table, slots


@pytest.mark.parametrize("cold_format", ["gather", "dictionary"])
def test_all_frozen(cold_format):
    db, table, _ = frozen_table(cold_format)
    assert all(block.state is BlockState.FROZEN for block in table.blocks)
    if cold_format == "dictionary":
        assert all(block.dictionaries for block in table.blocks)
    with db.transaction() as txn:
        assert_scan_is_the_reference(table, txn)
    assert_unpinned(table)


def test_frozen_and_hot_mix():
    db, table, slots = frozen_table(extra_rows=40)
    states = table.block_states()
    assert states[BlockState.FROZEN] == 2 and states[BlockState.HOT] == 1
    hot = [s for s in slots if s.block_id == table.blocks[-1].block_id]
    snapshot = db.begin()
    with db.transaction() as txn:  # committed after the snapshot began
        table.update(txn, hot[0], {NOTE: "after the snapshot"})
        table.delete(txn, hot[1])
    writer = db.begin()  # never commits
    table.update(writer, hot[2], {NOTE: None, 1: -1.0})
    table.insert(writer, random_row(random.Random(1), 10_000))
    assert_scan_is_the_reference(table, snapshot)
    with db.transaction() as txn:
        assert_scan_is_the_reference(table, txn)
    assert_scan_is_the_reference(table, writer)  # sees its own writes
    assert_unpinned(table)
    db.abort(writer)
    db.commit(snapshot)


def test_index_backfill_over_frozen_blocks():
    """``create_index`` indexes every visible row once at its real slot,
    reading frozen blocks in place, and leaves nothing pinned."""
    db = Database(logging_enabled=False, cold_threshold_epochs=1)
    info = db.create_table(
        "t", [ColumnSpec("id", INT64), ColumnSpec("name", UTF8)],
        block_size=1 << 12, watch_cold=True,
    )
    table = info.table
    rows = table.layout.num_slots * 2 + 10
    with db.transaction() as txn:
        slots = [table.insert(txn, {0: i, 1: f"name-{i}"}) for i in range(rows)]
    db.freeze_table("t")
    assert table.block_states()[BlockState.FROZEN] == 2
    writer = db.begin()
    table.update(writer, slots[-1], {0: -1})  # uncommitted key change
    index = db.create_index("t", "pk", ["id"])
    assert len(index.structure) == rows
    for key, slot in enumerate(slots):
        assert index.structure.search((key,)) == [slot]
    assert index.structure.search((-1,)) == []
    db.abort(writer)
    assert_unpinned(table)

    def update_a_frozen_row():
        with db.transaction() as txn:
            table.update(txn, slots[0], {1: "reheated"})

    updater = threading.Thread(target=update_a_frozen_row, daemon=True)
    updater.start()
    updater.join(timeout=10)
    assert not updater.is_alive(), "update of a frozen row hung after backfill"
    reader = db.begin()
    [(slot, row)] = index.lookup(reader, (0,))
    assert slot == slots[0] and row.get(1) == "reheated"
    db.commit(reader)
