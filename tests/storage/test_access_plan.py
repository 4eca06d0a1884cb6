"""Every stored type through the compiled access plan (Section 3.2).

``DataTable`` reads and writes single slots through
:attr:`BlockLayout.access`: ``struct`` reads at computed offsets and
assignments through the block's typed column views.  Each type is written
with ``insert`` and ``update`` and must read back, through ``select``, as
the value written (after float32 rounding) and as the block readers
(``TableScanner.batch_values``) see it, hot and frozen.  Values are
compared by type and ``repr``, so ``True`` differs from ``1``, ``-0.0``
from ``0.0``, and NaN equals NaN.
"""

import math

import numpy as np
import pytest

from repro import ColumnSpec, Database
from repro.arrowfmt.datatypes import (
    BINARY,
    BOOL,
    FLOAT32,
    FLOAT64,
    INT8,
    INT16,
    INT32,
    INT64,
    UINT8,
    UINT16,
    UINT32,
    UINT64,
    UTF8,
    FixedBinaryType,
)
from repro.query.scan import TableScanner
from repro.storage.constants import VARLEN_INLINE_LIMIT, BlockState
from repro.storage.tuple_slot import TupleSlot

LONG_TEXT = "an out-of-line value, ✓ past the inline limit"
LONG_BYTES = b"\x00\xff" * 20

#: Column name, type, and the values rows cycle through: each type's
#: extremes, inline and out-of-line varlens.
COLUMNS = [
    ("i8", INT8, [-(2**7), 2**7 - 1, 0]),
    ("i16", INT16, [-(2**15), 2**15 - 1, -1]),
    ("i32", INT32, [-(2**31), 2**31 - 1, 7]),
    ("i64", INT64, [-(2**63), 2**63 - 1, -(2**62), 2**32 + 1]),
    ("u8", UINT8, [0, 2**8 - 1]),
    ("u16", UINT16, [0, 2**16 - 1]),
    ("u32", UINT32, [0, 2**32 - 1, 2**31]),
    ("u64", UINT64, [0, 2**64 - 1, 2**63, 2**32 + 1]),
    ("f32", FLOAT32, [1.1, -3.5, math.inf, 2.0**-149]),
    ("f64", FLOAT64, [math.nan, math.inf, -math.inf, -0.0, 1.1]),
    ("b", BOOL, [True, False]),
    ("fb", FixedBinaryType(6), [b"abcdef", b"\x00\x01\x02\x03\x04\x05"]),
    ("bin", BINARY, [b"", b"x" * VARLEN_INLINE_LIMIT, LONG_BYTES]),
    ("s", UTF8, ["", "héllo", LONG_TEXT]),
]
SPECS = [ColumnSpec(name, dtype) for name, dtype, _ in COLUMNS]
F32 = [name for name, _, _ in COLUMNS].index("f32")


def row(i, shift=0):
    """Row ``i``: column ``c`` takes its ``(i + c + shift)``-th value."""
    return {
        c: values[(i + c + shift) % len(values)] for c, (_, _, values) in enumerate(COLUMNS)
    }


def stored(values):
    """``values`` as storage keeps them: FLOAT32 rounded to float32."""
    out = dict(values)
    if out.get(F32) is not None:
        out[F32] = float(np.float32(out[F32]))
    return out


def same(values):
    return {c: (type(v).__name__, repr(v)) for c, v in values.items()}


def make_table(rows=0):
    db = Database(logging_enabled=False, cold_threshold_epochs=1)
    table = db.create_table("t", SPECS, block_size=1 << 14, watch_cold=True).table
    with db.transaction() as txn:
        slots = [table.insert(txn, row(i)) for i in range(rows)]
    return db, table, slots


def select(db, table, slot):
    with db.transaction() as txn:
        found = table.select(txn, slot)
    return None if found is None else found.to_dict()


def scanned(db, table):
    """``slot -> row`` of every visible tuple, read by the block readers."""
    rows = {}
    with db.transaction() as txn:
        scanner = TableScanner(None, table, txn=txn)
        for batch in scanner.batches():
            columns = scanner.batch_values(batch)
            # A frozen batch holds every slot of its block, in order.
            offsets = range(batch.num_rows) if batch.slots is None else batch.slots.tolist()
            for i, offset in enumerate(offsets):
                rows[TupleSlot(batch.block_id, offset)] = {
                    c: column[i] for c, column in enumerate(columns)
                }
    return rows


def assert_reads(db, table, expected):
    """``select`` returns ``expected[slot]`` and agrees with the scan."""
    scan = scanned(db, table)
    assert set(scan) == set(expected)
    for slot, values in expected.items():
        got = select(db, table, slot)
        assert same(got) == same(stored(values))
        assert same(scan[slot]) == same(got)


def test_insert_reads_back_every_type():
    db, table, slots = make_table(12)
    assert_reads(db, table, {slot: row(i) for i, slot in enumerate(slots)})


def test_update_reads_back_every_type():
    db, table, slots = make_table(12)
    with db.transaction() as txn:
        for i, slot in enumerate(slots):
            assert table.update(txn, slot, row(i, shift=1))
    assert_reads(db, table, {slot: row(i, shift=1) for i, slot in enumerate(slots)})


def test_update_to_null_and_back():
    db, table, slots = make_table(6)
    nulls = {c: None for c in range(len(COLUMNS))}
    with db.transaction() as txn:
        for slot in slots:
            table.update(txn, slot, nulls)
    assert_reads(db, table, {slot: nulls for slot in slots})
    with db.transaction() as txn:
        for i, slot in enumerate(slots):
            table.update(txn, slot, row(i, shift=2))
    assert_reads(db, table, {slot: row(i, shift=2) for i, slot in enumerate(slots)})


def test_insert_null_everywhere():
    db, table, _ = make_table()
    with db.transaction() as txn:
        slot = table.insert(txn, {c: None for c in range(len(COLUMNS))})
    assert_reads(db, table, {slot: {c: None for c in range(len(COLUMNS))}})


@pytest.mark.parametrize("to_null", [False, True])
def test_aborted_update_rolls_every_kind_back(to_null):
    db, table, slots = make_table(6)
    heaps = [dict(block.varlen_heaps) for block in table.blocks]
    live = [{c: heap.live_ids() for c, heap in h.items()} for h in heaps]
    writer = db.begin()
    for i, slot in enumerate(slots):
        delta = {c: None for c in range(len(COLUMNS))} if to_null else row(i, shift=1)
        assert table.update(writer, slot, delta)
    db.abort(writer)
    assert_reads(db, table, {slot: row(i) for i, slot in enumerate(slots)})
    # The loser's out-of-line values were freed; the originals were not.
    assert [{c: heap.live_ids() for c, heap in h.items()} for h in heaps] == live


def test_aborted_insert_frees_its_values():
    db, table, slots = make_table(3)
    heaps = table.blocks[0].varlen_heaps
    live = {c: heap.live_ids() for c, heap in heaps.items()}
    writer = db.begin()
    slot = table.insert(writer, row(2))
    assert any(heap.live_ids() != live[c] for c, heap in heaps.items())
    db.abort(writer)
    assert select(db, table, slot) is None
    assert {c: heap.live_ids() for c, heap in heaps.items()} == live
    assert_reads(db, table, {s: row(i) for i, s in enumerate(slots)})


def test_frozen_blocks_read_from_the_gathered_buffer():
    db, table, _ = make_table()
    count = table.layout.num_slots * 2
    with db.transaction() as txn:
        slots = [table.insert(txn, row(i)) for i in range(count)]
    db.freeze_table("t")
    assert all(block.state is BlockState.FROZEN for block in table.blocks)
    assert all(block.gathered for block in table.blocks)
    assert_reads(db, table, {slot: row(i) for i, slot in enumerate(slots)})
    # A write reheats the block; its other rows still read the gathered bytes.
    with db.transaction() as txn:
        table.update(txn, slots[0], row(0, shift=1))
    expected = {slot: row(i) for i, slot in enumerate(slots)}
    expected[slots[0]] = row(0, shift=1)
    assert table.blocks[0].state is BlockState.HOT
    assert_reads(db, table, expected)


def test_bool_with_nulls_matches_select():
    """BOOL is stored as uint8 with a validity bit: the block readers give
    ``True``/``False``/``None`` as ``select`` does, frozen and hot, and
    through a selection vector cut by ``limit``."""
    db = Database(logging_enabled=False, cold_threshold_epochs=1)
    table = db.create_table(
        "flags",
        [ColumnSpec("id", INT64), ColumnSpec("flag", BOOL)],
        block_size=1 << 12,
        watch_cold=True,
    ).table
    flag = lambda i: None if i % 3 == 0 else i % 2 == 0  # noqa: E731
    with db.transaction() as txn:
        slots = [table.insert(txn, {0: i, 1: flag(i)}) for i in range(600)]
    db.freeze_table("flags")
    with db.transaction() as txn:  # a hot block beside the frozen ones
        slots += [table.insert(txn, {0: i, 1: flag(i)}) for i in range(600, 650)]
    assert {b.state for b in table.blocks} == {BlockState.FROZEN, BlockState.HOT}
    expected = {slot: select(db, table, slot) for slot in slots}
    scan = scanned(db, table)
    assert {s: same(v) for s, v in scan.items()} == {s: same(v) for s, v in expected.items()}
    assert {type(v[1]) for v in scan.values()} == {bool, type(None)}
    with db.transaction() as txn:
        scanner = TableScanner(None, table, txn=txn, range_filters={0: (100, None)})
        for batch in scanner.batches():
            ids, flags = scanner.batch_values(batch, limit=7)
            assert len(ids) == min(7, len(batch.selection))
            assert [same({1: f}) for f in flags] == [same({1: flag(i)}) for i in ids]
            assert all(i >= 100 for i in ids)


class TestWriteCoercion:
    """Fixed-width writes assign through numpy, so they coerce as numpy does."""

    def test_float_into_int_column_truncates(self):
        db, table, _ = make_table()
        values = row(0)
        values.update({0: 3.9, 2: -3.9, 3: 2.5})
        with db.transaction() as txn:
            slot = table.insert(txn, values)
        got = select(db, table, slot)
        assert (got[0], got[2], got[3]) == (3, -3, 2)
        assert all(type(got[c]) is int for c in (0, 2, 3))

    def test_float32_overflow_stores_inf(self):
        db, table, slots = make_table(1)
        with db.transaction() as txn, np.errstate(over="ignore"):
            table.update(txn, slots[0], {F32: 1e40})
        assert select(db, table, slots[0])[F32] == math.inf

    @pytest.mark.parametrize("column, value", [(0, 2**7), (4, -1), (7, 2**64), (3, 2**63)])
    def test_out_of_range_int_raises_overflow(self, column, value):
        db, table, slots = make_table(1)
        before = select(db, table, slots[0])
        writer = db.begin()
        with pytest.raises(OverflowError):
            table.update(writer, slots[0], {column: value})
        db.abort(writer)
        assert same(select(db, table, slots[0])) == same(before)
