"""Tests for the order of a transaction's undo and redo records."""

import pytest

from repro.arrowfmt.datatypes import INT64, UTF8
from repro.storage.block_store import BlockStore
from repro.storage.data_table import DataTable
from repro.storage.layout import BlockLayout, ColumnSpec
from repro.txn.manager import TransactionManager


@pytest.fixture
def table():
    layout = BlockLayout([ColumnSpec("id", INT64), ColumnSpec("s", UTF8)])
    return DataTable(BlockStore(), layout, "t")


@pytest.fixture
def tm():
    return TransactionManager()


class TestUndoBuffer:
    def test_reverse_iter_is_newest_first(self, tm, table):
        txn = tm.begin()
        slots = [table.insert(txn, {0: i, 1: "v"}) for i in range(3)]
        records = list(txn.undo_buffer)
        assert [r.slot for r in records] == slots
        assert [r.slot for r in reversed(txn.undo_buffer)] == slots[::-1]


class TestRedoBuffer:
    def test_records_kept_in_order(self, tm, table):
        txn = tm.begin()
        slots = [table.insert(txn, {0: i, 1: "v"}) for i in range(3)]
        table.update(txn, slots[1], {1: "w"})
        table.delete(txn, slots[0])
        assert [(r.op, r.slot) for r in txn.redo_buffer] == [
            ("insert", slots[0]),
            ("insert", slots[1]),
            ("insert", slots[2]),
            ("update", slots[1]),
            ("delete", slots[0]),
        ]
