"""Tests for the Data Table API: MVCC reads and writes."""

import pytest

from repro.arrowfmt.datatypes import FLOAT64, INT64, UTF8
from repro.errors import StorageError, TransactionAborted
from repro.storage.block_store import BlockStore
from repro.storage.data_table import DataTable
from repro.storage.layout import BlockLayout, ColumnSpec
from repro.storage.tuple_slot import TupleSlot
from repro.txn.manager import TransactionManager


@pytest.fixture
def layout():
    return BlockLayout(
        [ColumnSpec("id", INT64), ColumnSpec("name", UTF8), ColumnSpec("price", FLOAT64)]
    )


@pytest.fixture
def tm():
    return TransactionManager()


@pytest.fixture
def table(layout):
    return DataTable(BlockStore(), layout, "t")


def committed_insert(tm, table, values):
    txn = tm.begin()
    slot = table.insert(txn, values)
    tm.commit(txn)
    return slot


class TestInsert:
    def test_insert_and_read_back(self, tm, table):
        slot = committed_insert(tm, table, {0: 1, 1: "widget", 2: 9.5})
        txn = tm.begin()
        row = table.select(txn, slot)
        assert row.to_dict() == {0: 1, 1: "widget", 2: 9.5}

    def test_insert_requires_all_columns(self, tm, table):
        txn = tm.begin()
        with pytest.raises(StorageError):
            table.insert(txn, {0: 1})

    def test_null_values(self, tm, table):
        slot = committed_insert(tm, table, {0: 1, 1: None, 2: None})
        txn = tm.begin()
        row = table.select(txn, slot)
        assert row.get(1) is None and row.get(2) is None

    def test_uncommitted_insert_invisible_to_others(self, tm, table):
        writer = tm.begin()
        slot = table.insert(writer, {0: 1, 1: "x", 2: 0.0})
        reader = tm.begin()
        assert table.select(reader, slot) is None

    def test_own_insert_visible(self, tm, table):
        writer = tm.begin()
        slot = table.insert(writer, {0: 1, 1: "x", 2: 0.0})
        assert table.select(writer, slot).get(0) == 1

    def test_insert_invisible_to_older_snapshot(self, tm, table):
        reader = tm.begin()
        slot = committed_insert(tm, table, {0: 1, 1: "x", 2: 0.0})
        assert table.select(reader, slot) is None

    def test_long_and_short_varlen(self, tm, table):
        long_value = "v" * 100
        slot = committed_insert(tm, table, {0: 1, 1: long_value, 2: 0.0})
        txn = tm.begin()
        assert table.select(txn, slot).get(1) == long_value

    def test_inserts_spill_to_new_blocks(self, tm):
        small_layout = BlockLayout([ColumnSpec("id", INT64)], block_size=1 << 12)
        table = DataTable(BlockStore(), small_layout, "small")
        txn = tm.begin()
        for i in range(small_layout.num_slots + 5):
            table.insert(txn, {0: i})
        tm.commit(txn)
        assert len(table.blocks) == 2
        assert table.live_tuple_count() == small_layout.num_slots + 5


class TestUpdate:
    def test_snapshot_isolation(self, tm, table):
        slot = committed_insert(tm, table, {0: 1, 1: "old", 2: 1.0})
        reader = tm.begin()
        writer = tm.begin()
        assert table.update(writer, slot, {1: "new"})
        assert table.select(reader, slot).get(1) == "old"
        tm.commit(writer)
        # Still the old version: the reader's snapshot predates the commit.
        assert table.select(reader, slot).get(1) == "old"
        fresh = tm.begin()
        assert table.select(fresh, slot).get(1) == "new"

    def test_partial_update_leaves_other_columns(self, tm, table):
        slot = committed_insert(tm, table, {0: 1, 1: "n", 2: 2.5})
        txn = tm.begin()
        table.update(txn, slot, {2: 9.9})
        tm.commit(txn)
        row = table.select(tm.begin(), slot)
        assert row.get(1) == "n" and row.get(2) == 9.9

    def test_write_write_conflict(self, tm, table):
        slot = committed_insert(tm, table, {0: 1, 1: "x", 2: 0.0})
        a, b = tm.begin(), tm.begin()
        assert table.update(a, slot, {0: 10})
        assert not table.update(b, slot, {0: 20})
        assert b.must_abort
        with pytest.raises(TransactionAborted):
            tm.commit(b)
        tm.commit(a)

    def test_conflict_with_committed_newer_version(self, tm, table):
        slot = committed_insert(tm, table, {0: 1, 1: "x", 2: 0.0})
        old = tm.begin()  # snapshot before the next commit
        quick = tm.begin()
        table.update(quick, slot, {0: 2})
        tm.commit(quick)
        # `old` must not clobber a version it cannot see.
        assert not table.update(old, slot, {0: 3})

    def test_update_to_null_and_back(self, tm, table):
        slot = committed_insert(tm, table, {0: 1, 1: "x", 2: 0.0})
        txn = tm.begin()
        table.update(txn, slot, {1: None})
        tm.commit(txn)
        assert table.select(tm.begin(), slot).get(1) is None
        txn = tm.begin()
        table.update(txn, slot, {1: "back"})
        tm.commit(txn)
        assert table.select(tm.begin(), slot).get(1) == "back"

    def test_multiple_versions_traversed(self, tm, table):
        slot = committed_insert(tm, table, {0: 0, 1: "v0", 2: 0.0})
        readers = [tm.begin()]
        for i in range(1, 4):
            txn = tm.begin()
            table.update(txn, slot, {1: f"v{i}"})
            tm.commit(txn)
            readers.append(tm.begin())
        for i, reader in enumerate(readers):
            assert table.select(reader, slot).get(1) == f"v{i}"

    def test_empty_delta_rejected(self, tm, table):
        slot = committed_insert(tm, table, {0: 1, 1: "x", 2: 0.0})
        with pytest.raises(StorageError):
            table.update(tm.begin(), slot, {})

    def test_same_txn_sequential_updates(self, tm, table):
        slot = committed_insert(tm, table, {0: 1, 1: "a", 2: 0.0})
        txn = tm.begin()
        assert table.update(txn, slot, {1: "b"})
        assert table.update(txn, slot, {1: "c"})
        assert table.select(txn, slot).get(1) == "c"
        tm.commit(txn)
        assert table.select(tm.begin(), slot).get(1) == "c"


class TestDelete:
    def test_delete_visibility(self, tm, table):
        slot = committed_insert(tm, table, {0: 1, 1: "x", 2: 0.0})
        reader = tm.begin()
        deleter = tm.begin()
        assert table.delete(deleter, slot)
        tm.commit(deleter)
        assert table.select(reader, slot) is not None  # old snapshot
        assert table.select(tm.begin(), slot) is None  # new snapshot

    def test_delete_nonexistent_rejected(self, tm, table):
        slot = committed_insert(tm, table, {0: 1, 1: "x", 2: 0.0})
        txn = tm.begin()
        table.delete(txn, slot)
        tm.commit(txn)
        with pytest.raises(StorageError):
            table.delete(tm.begin(), slot)

    def test_delete_then_conflicting_write(self, tm, table):
        slot = committed_insert(tm, table, {0: 1, 1: "x", 2: 0.0})
        a, b = tm.begin(), tm.begin()
        assert table.delete(a, slot)
        assert not table.update(b, slot, {0: 5})

    def test_insert_delete_same_txn(self, tm, table):
        txn = tm.begin()
        slot = table.insert(txn, {0: 1, 1: "x", 2: 0.0})
        assert table.delete(txn, slot)
        assert table.select(txn, slot) is None
        tm.commit(txn)
        assert table.select(tm.begin(), slot) is None


class TestAbort:
    def test_abort_restores_fixed_and_varlen(self, tm, table):
        long_value = "original long value over twelve bytes"
        slot = committed_insert(tm, table, {0: 7, 1: long_value, 2: 1.0})
        txn = tm.begin()
        table.update(txn, slot, {0: 8, 1: "clobbered!", 2: 2.0})
        tm.abort(txn)
        row = table.select(tm.begin(), slot)
        assert row.to_dict() == {0: 7, 1: long_value, 2: 1.0}

    def test_abort_insert_removes_tuple(self, tm, table):
        txn = tm.begin()
        slot = table.insert(txn, {0: 1, 1: "x", 2: 0.0})
        tm.abort(txn)
        assert table.select(tm.begin(), slot) is None

    def test_abort_delete_restores_tuple(self, tm, table):
        slot = committed_insert(tm, table, {0: 1, 1: "x", 2: 0.0})
        txn = tm.begin()
        table.delete(txn, slot)
        tm.abort(txn)
        assert table.select(tm.begin(), slot).get(0) == 1

    def test_abort_releases_conflict(self, tm, table):
        slot = committed_insert(tm, table, {0: 1, 1: "x", 2: 0.0})
        loser = tm.begin()
        table.update(loser, slot, {0: 99})
        tm.abort(loser)
        winner = tm.begin()
        assert table.update(winner, slot, {0: 42})
        tm.commit(winner)
        assert table.select(tm.begin(), slot).get(0) == 42

    @pytest.mark.parametrize("write", ["update", "delete"])
    def test_aborted_head_does_not_hide_a_newer_commit(self, tm, table, write):
        # T2's commit is newer than T1's snapshot; T3's abort leaves its
        # record at the chain head above it.  T1 must still lose.
        slot = committed_insert(tm, table, {0: 1, 1: "x", 2: 0.0})
        t1 = tm.begin()
        t2 = tm.begin()
        assert table.update(t2, slot, {0: 2})
        tm.commit(t2)
        t3 = tm.begin()
        assert table.update(t3, slot, {0: 3})
        tm.abort(t3)
        if write == "update":
            assert not table.update(t1, slot, {0: 4})
        else:
            assert not table.delete(t1, slot)
        assert t1.must_abort
        tm.abort(t1)
        assert table.select(tm.begin(), slot).get(0) == 2

    def test_abort_restores_null_state(self, tm, table):
        slot = committed_insert(tm, table, {0: 1, 1: None, 2: 0.0})
        txn = tm.begin()
        table.update(txn, slot, {1: "not null anymore"})
        tm.abort(txn)
        assert table.select(tm.begin(), slot).get(1) is None

    def test_abort_of_a_null_write_keeps_the_out_of_line_value(self, tm, table):
        long_value = "an out-of-line value of many bytes"
        slot = committed_insert(tm, table, {0: 1, 1: long_value, 2: 0.0})
        block = table._block(slot.block_id)
        live_before = block.varlen_heaps[1].live_ids()
        txn = tm.begin()
        table.update(txn, slot, {1: None})
        tm.abort(txn)
        assert block.varlen_heaps[1].live_ids() == live_before
        assert table.select(tm.begin(), slot).get(1) == long_value

    def test_writes_after_abort_rejected(self, tm, table):
        slot = committed_insert(tm, table, {0: 1, 1: "x", 2: 0.0})
        txn = tm.begin()
        tm.abort(txn)
        with pytest.raises(StorageError):
            table.update(txn, slot, {0: 2})


class TestNullVarlen:
    def test_null_write_clears_the_entry(self, tm, table):
        slot = committed_insert(tm, table, {0: 1, 1: "an out-of-line value", 2: 0.0})
        txn = tm.begin()
        table.update(txn, slot, {1: None})
        tm.commit(txn)
        block = table._block(slot.block_id)
        assert not block.varlen_entry_view(1, slot.offset).any()


class TestPlace:
    def rows(self, count):
        return [
            {0: i, 1: None if i % 5 == 0 else f"value-{i}" * (i % 3), 2: i / 4}
            for i in range(count)
        ]

    def test_rows_span_blocks_and_read_back(self, tm, table):
        count = table.layout.num_slots + 7
        txn = tm.begin()
        slots = table.place(txn, self.rows(count))
        tm.commit(txn)
        assert len(table.blocks) == 2
        assert [s.offset for s in slots[-7:]] == list(range(7))
        reader = tm.begin()
        assert [row.to_dict() for _, row in table.scan(reader)] == self.rows(count)
        assert all(not block.has_active_versions() for block in table.blocks)

    def test_placed_rows_are_visible_to_older_snapshots_and_survive_abort(self, tm, table):
        older = tm.begin()
        txn = tm.begin()
        [slot] = table.place(txn, self.rows(2)[1:])
        tm.abort(txn)
        assert table.select(older, slot).to_dict() == self.rows(2)[1]

    def test_redo_records_make_the_transaction_loggable(self, tm, table):
        txn = tm.begin()
        table.place(txn, self.rows(3))
        assert len(txn.undo_buffer) == 0 and len(txn.redo_buffer) == 3
        assert not txn.is_read_only

    def test_zone_maps_and_insertion_block(self, tm, table):
        txn = tm.begin()
        table.place(txn, self.rows(10))
        slot = table.insert(txn, {0: 100, 1: "x", 2: -1.0})
        tm.commit(txn)
        block = table.blocks[0]
        assert block.hot_zone_maps[0] == [0, 100]
        assert block.hot_zone_maps[2] == [-1.0, 9 / 4]
        assert (slot.block_id, slot.offset) == (block.block_id, 10)

    def test_missing_column_rejected_before_anything_is_written(self, tm, table):
        txn = tm.begin()
        with pytest.raises(StorageError, match="missing column"):
            table.place(txn, [{0: 1, 1: "x", 2: 0.0}, {0: 2, 1: "y"}])
        assert table.blocks == []


class TestScan:
    def test_scan_sees_committed_only(self, tm, table):
        for i in range(5):
            committed_insert(tm, table, {0: i, 1: f"r{i}", 2: 0.0})
        pending = tm.begin()
        table.insert(pending, {0: 99, 1: "pending", 2: 0.0})
        reader = tm.begin()
        rows = [row.get(0) for _, row in table.scan(reader)]
        assert rows == [0, 1, 2, 3, 4]

    def test_scan_projection(self, tm, table):
        committed_insert(tm, table, {0: 1, 1: "x", 2: 3.5})
        reader = tm.begin()
        [(_, row)] = list(table.scan(reader, column_ids=[2]))
        assert row.to_dict() == {2: 3.5}

    def test_scan_includes_deleted_for_old_snapshots(self, tm, table):
        slot = committed_insert(tm, table, {0: 1, 1: "x", 2: 0.0})
        old_reader = tm.begin()
        deleter = tm.begin()
        table.delete(deleter, slot)
        tm.commit(deleter)
        assert [r.get(0) for _, r in table.scan(old_reader)] == [1]
        assert list(table.scan(tm.begin())) == []


class TestSlotResolution:
    def test_foreign_block_rejected(self, tm, table):
        with pytest.raises(StorageError):
            table.select(tm.begin(), TupleSlot(12345, 0))
