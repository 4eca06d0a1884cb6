"""Equivalence and contract tests for the vectorized snapshot scan.

The block-at-a-time hot path of :class:`TableScanner` must be
indistinguishable — byte for byte on fixed-width columns, value for value
on varlen, slot for slot — from the row-at-a-time reference
(:func:`repro.storage.data_table.rowwise_scan`, one ``DataTable.select``
per slot).  The tests here drive both under the same snapshot against
tables with version chains, NULLs, deletions, and concurrent writers,
plus pin the selection-vector and snapshot-consistency contracts.
"""

import threading

import numpy as np
import pytest

from repro import ColumnSpec, Database, FLOAT64, INT64, UTF8
from repro.query import ArrowColumnView, TableScanner, aggregate
from repro.query.ops import filter_masks
from repro.query.scan import ColumnBatch
from repro.storage.data_table import rowwise_scan


def build(rows=400, nulls=True):
    db = Database(logging_enabled=False, cold_threshold_epochs=1)
    info = db.create_table(
        "t",
        [
            ColumnSpec("id", INT64),
            ColumnSpec("amount", FLOAT64),
            ColumnSpec("note", UTF8),
        ],
        block_size=1 << 13,
    )
    slots = []
    with db.transaction() as txn:
        for i in range(rows):
            amount = None if nulls and i % 7 == 0 else float(i)
            note = None if nulls and i % 11 == 0 else f"note-{i}"
            slots.append(info.table.insert(txn, {0: i, 1: amount, 2: note}))
    return db, info, slots


def churn(db, info, slots):
    """Build version chains: updates, deletes, NULL flips."""
    with db.transaction() as txn:
        for i in range(0, len(slots), 5):
            info.table.update(txn, slots[i], {1: float(i) * 10.0, 2: f"upd-{i}"})
        for i in range(3, len(slots), 17):
            info.table.delete(txn, slots[i])
        for i in range(1, len(slots), 13):
            info.table.update(txn, slots[i], {1: None})


def assert_batches_equal(fast, slow):
    """Vectorized batch must match the row-wise oracle exactly."""
    assert fast.num_rows == slow.num_rows
    assert fast.block_id == slow.block_id
    assert np.array_equal(fast.slots, slow.slots)
    assert set(fast.columns) == set(slow.columns)
    for cid, vector in fast.columns.items():
        oracle = slow.columns[cid]
        if isinstance(vector, np.ndarray):
            assert isinstance(oracle, np.ndarray)
            assert vector.dtype == oracle.dtype
            f_nulls = fast.null_masks.get(cid)
            s_nulls = slow.null_masks.get(cid)
            if f_nulls is None and s_nulls is None:
                assert vector.tobytes() == oracle.tobytes()
            else:
                assert f_nulls is not None and s_nulls is not None
                assert np.array_equal(f_nulls, s_nulls)
                valid = ~f_nulls
                assert np.array_equal(vector[valid], oracle[valid])
        else:
            assert list(vector) == list(oracle)


def oracle_batches(table, txn):
    """The per-slot reference in batch shape: one batch per block with a
    visible row, fixed-width columns as numpy arrays plus NULL masks."""
    by_block = {}
    for slot, row in rowwise_scan(table, txn):
        by_block.setdefault(slot.block_id, []).append((slot.offset, row.to_dict()))
    batches = []
    for block_id, rows in by_block.items():
        columns, null_masks = {}, {}
        for cid, spec in enumerate(table.layout.columns):
            values = [row[cid] for _, row in rows]
            if spec.is_varlen:
                columns[cid] = values
                continue
            nulls = np.array([v is None for v in values])
            columns[cid] = np.array(
                [0 if v is None else v for v in values], dtype=spec.dtype.numpy_dtype
            )
            if nulls.any():
                null_masks[cid] = nulls
        slots = np.array([offset for offset, _ in rows])
        batches.append(
            ColumnBatch(columns, len(rows), False, block_id, slots, null_masks=null_masks)
        )
    return batches


def scan_pair(db, info, txn=None):
    fast = list(TableScanner(db.txn_manager, info.table, txn=txn).batches())
    reader = txn or db.txn_manager.begin()
    slow = oracle_batches(info.table, reader)
    if txn is None:
        db.txn_manager.commit(reader)
    return fast, slow


class TestHotEquivalence:
    def test_clean_hot_blocks(self):
        db, info, _ = build()
        fast, slow = scan_pair(db, info)
        assert fast and len(fast) == len(slow)
        for f, s in zip(fast, slow):
            assert_batches_equal(f, s)

    def test_with_version_chains(self):
        db, info, slots = build()
        churn(db, info, slots)
        fast, slow = scan_pair(db, info)
        assert len(fast) == len(slow)
        for f, s in zip(fast, slow):
            assert_batches_equal(f, s)

    def test_uncommitted_writer_invisible(self):
        db, info, slots = build(rows=100, nulls=False)
        writer = db.txn_manager.begin()
        info.table.update(writer, slots[0], {1: -1.0, 2: "dirty"})
        info.table.delete(writer, slots[1])
        info.table.insert(writer, {0: 999, 1: 9.0, 2: "new"})
        try:
            fast, slow = scan_pair(db, info)
            for f, s in zip(fast, slow):
                assert_batches_equal(f, s)
            total = sum(b.num_rows for b in fast)
            assert total == 100  # writer's churn invisible to the snapshot
            assert -1.0 not in fast[0].column(1)
        finally:
            db.txn_manager.abort(writer)

    def test_concurrent_writer_threads(self):
        """Scans racing real writer threads stay equal to the oracle."""
        db, info, slots = build(rows=200, nulls=False)
        stop = threading.Event()
        errors = []

        def mutate():
            i = 0
            while not stop.is_set():
                try:
                    with db.transaction() as txn:
                        slot = slots[i % len(slots)]
                        info.table.update(
                            txn, slot, {1: float(i), 2: f"w-{i}"}
                        )
                    i += 1
                except Exception as exc:  # pragma: no cover - fail loud
                    errors.append(exc)
                    return

        thread = threading.Thread(target=mutate, daemon=True)
        thread.start()
        try:
            for _ in range(10):
                txn = db.txn_manager.begin()
                try:
                    fast, slow = scan_pair(db, info, txn=txn)
                finally:
                    db.txn_manager.commit(txn)
                assert len(fast) == len(slow)
                for f, s in zip(fast, slow):
                    assert_batches_equal(f, s)
        finally:
            stop.set()
            thread.join(timeout=5)
        assert not errors

    def test_rows_patched_counts_chained_slots_only(self):
        db, info, slots = build(rows=100, nulls=False)
        db.quiesce()  # unlink the committed insert chains
        scanner = TableScanner(db.txn_manager, info.table)
        list(scanner.batches())
        assert scanner.rows_patched == 0  # no chains left
        writer = db.txn_manager.begin()
        for slot in slots[:7]:
            info.table.update(writer, slot, {1: 0.5})
        scanner = TableScanner(db.txn_manager, info.table)
        list(scanner.batches())
        db.txn_manager.abort(writer)
        assert scanner.rows_patched == 7


class TestSnapshotConsistency:
    def test_single_snapshot_across_blocks(self):
        """All hot blocks of one scan share one snapshot (one txn)."""
        db, info, slots = build(rows=400, nulls=False)
        assert len(info.table.blocks) > 1
        scanner = TableScanner(db.txn_manager, info.table, column_ids=[0, 1])
        it = scanner.batches()
        first = next(it)
        with db.transaction() as txn:
            for slot in slots:
                info.table.update(txn, slot, {1: -100.0})
        rest = list(it)
        for batch in [first, *rest]:
            assert not (batch.column(1) == -100.0).any()

    def test_caller_txn_pins_snapshot_and_survives(self):
        db, info, slots = build(rows=50, nulls=False)
        txn = db.txn_manager.begin()
        scanner = TableScanner(db.txn_manager, info.table, txn=txn)
        before = sum(b.num_rows for b in scanner.batches())
        with db.transaction() as w:
            info.table.insert(w, {0: 50, 1: 1.0, 2: "late"})
        scanner = TableScanner(db.txn_manager, info.table, txn=txn)
        after = sum(b.num_rows for b in scanner.batches())
        assert before == after == 50  # pinned snapshot; txn not committed
        db.txn_manager.commit(txn)


class TestSelectionVectors:
    def test_inclusive_bounds_are_exact(self):
        db, info, _ = build(rows=100, nulls=False)
        scanner = TableScanner(
            db.txn_manager, info.table, column_ids=[0], range_filters={0: (10, 19)}
        )
        batches = list(scanner.batches())
        selected = np.concatenate([b.gather(0) for b in batches])
        assert sorted(selected.tolist()) == list(range(10, 20))

    def test_nulls_excluded_from_selection(self):
        db, info, _ = build(rows=100, nulls=True)
        scanner = TableScanner(
            db.txn_manager, info.table, column_ids=[1],
            range_filters={1: (None, 1e9)},
        )
        for batch in scanner.batches():
            mask = batch.selection_mask()
            nulls = batch.null_masks.get(1)
            assert mask is not None
            if nulls is not None:
                assert not (mask & nulls).any()

    def test_contradictory_bounds_select_nothing(self):
        db, info, _ = build(rows=60, nulls=False)
        scanner = TableScanner(
            db.txn_manager, info.table, column_ids=[0], range_filters={0: (30, 10)}
        )
        assert sum(b.selected_count for b in scanner.batches()) == 0

    def test_aggregate_consumes_selection(self):
        db, info, _ = build(rows=100, nulls=False)
        scanner = TableScanner(
            db.txn_manager, info.table, column_ids=[0, 1],
            range_filters={0: (0, 9)},
        )
        result = aggregate(scanner, value_column=1)
        assert result.count == 10
        assert result.total == float(sum(range(10)))

    def test_selection_on_unprojected_filter_column_skipped(self):
        """A filter on a column outside the projection must not select."""
        db, info, _ = build(rows=40, nulls=False)
        scanner = TableScanner(
            db.txn_manager, info.table, column_ids=[1], range_filters={0: (0, 3)}
        )
        for batch in scanner.batches():
            # Conservative: all rows selected, caller re-applies.
            assert batch.selected_count == batch.num_rows


class TestFilterMasks:
    def test_null_distinct_from_false(self):
        db, info, _ = build(rows=70, nulls=True)
        scanner = TableScanner(db.txn_manager, info.table, column_ids=[1])
        for batch in scanner.batches():
            mask, nulls = filter_masks(batch, 1, lambda col: col >= 0)
            # Every row is >= 0 or NULL; the two masks partition the batch.
            assert not (mask & nulls).any()
            assert (mask | nulls).all()
            expected_nulls = batch.null_masks.get(
                1, np.zeros(batch.num_rows, dtype=bool)
            )
            assert np.array_equal(nulls, expected_nulls)

    def test_varlen_masks(self):
        db, info, _ = build(rows=70, nulls=True)
        scanner = TableScanner(db.txn_manager, info.table, column_ids=[2])
        for batch in scanner.batches():
            mask, nulls = filter_masks(batch, 2, lambda v: v.startswith("note-"))
            values = batch.pylist(2)
            for i, v in enumerate(values):
                assert nulls[i] == (v is None)
                assert mask[i] == (v is not None and v.startswith("note-"))


class TestFrozenVarlenViews:
    def test_lazy_view_equivalent_to_rowwise(self):
        db = Database(logging_enabled=False, cold_threshold_epochs=1)
        info = db.create_table(
            "f",
            [ColumnSpec("id", INT64), ColumnSpec("s", UTF8)],
            block_size=1 << 13,
            watch_cold=True,
        )
        with db.transaction() as txn:
            for i in range(300):
                info.table.insert(txn, {0: i, 1: None if i % 9 == 0 else f"s-{i}"})
        db.freeze_table("f")
        scanner = TableScanner(db.txn_manager, info.table)
        rows = []
        for batch in scanner.batches():
            view = batch.column(1)
            if batch.from_frozen:
                assert isinstance(view, ArrowColumnView)
            rows.extend(zip(batch.pylist(0), batch.pylist(1)))
        assert rows == [
            (i, None if i % 9 == 0 else f"s-{i}") for i in range(300)
        ]


class TestExporterUsesVectorizedScan:
    def test_rows_match_storage(self):
        from repro.export.exporter import TableExporter

        db, info, slots = build(rows=120)
        churn(db, info, slots)
        exporter = TableExporter(db.txn_manager, info.table)
        rows = list(zip(*exporter._scan_columns()))
        txn = db.txn_manager.begin()
        expected = [
            tuple(row.to_dict().values()) for _, row in rowwise_scan(info.table, txn)
        ]
        db.txn_manager.commit(txn)
        assert sorted(rows, key=lambda r: r[0]) == sorted(
            expected, key=lambda r: r[0]
        )
