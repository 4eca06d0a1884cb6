"""Tests for incremental export, background threads, and what a range
scan reports about pruning and the frozen fast path."""

import pytest

from repro import ColumnSpec, Database, INT64, UTF8
from repro.export.flight import client_receive, incremental_export
from repro.query import TableScanner
from repro.storage.tuple_slot import TupleSlot


def build(rows=900):
    db = Database(logging_enabled=False, cold_threshold_epochs=1)
    info = db.create_table(
        "t",
        [ColumnSpec("id", INT64), ColumnSpec("s", UTF8)],
        block_size=1 << 13,
        watch_cold=True,
    )
    with db.transaction() as txn:
        slots = [info.table.insert(txn, {0: i, 1: f"v-{i}"}) for i in range(rows)]
    db.freeze_table("t")
    return db, info, slots


class TestIncrementalExport:
    def test_first_export_ships_everything(self):
        db, info, _ = build()
        stream = incremental_export(db.txn_manager, info.table, since=0)
        table = client_receive(stream.payload)
        assert table.num_rows == 900
        assert stream.blocks_skipped == 0

    def test_second_export_skips_unchanged_frozen_blocks(self):
        db, info, _ = build()
        first = incremental_export(db.txn_manager, info.table, since=0)
        second = incremental_export(db.txn_manager, info.table, since=first.cursor)
        assert second.frozen_blocks_shipped == 0
        assert second.blocks_skipped >= 2
        # Hot blocks (the insertion block) still ship every time.
        table = client_receive(second.payload)
        assert table.num_rows < 900

    def test_changed_blocks_reship_after_refreeze(self):
        db, info, slots = build()
        first = incremental_export(db.txn_manager, info.table, since=0)
        # Modify one tuple (reheats its block), then re-freeze.
        with db.transaction() as txn:
            info.table.update(txn, slots[0], {1: "changed"})
        db.freeze_table("t")
        second = incremental_export(db.txn_manager, info.table, since=first.cursor)
        assert second.frozen_blocks_shipped >= 1
        table = client_receive(second.payload)
        assert "changed" in table.column_values("s")

    def test_cumulative_deltas_reconstruct_state(self):
        db, info, slots = build(rows=600)
        state: dict[int, str] = {}

        def apply(stream):
            table = client_receive(stream.payload)
            for row_id, value in zip(
                table.column_values("id"), table.column_values("s")
            ):
                state[row_id] = value

        first = incremental_export(db.txn_manager, info.table, since=0)
        apply(first)
        with db.transaction() as txn:
            info.table.update(txn, slots[5], {1: "amended"})
            info.table.insert(txn, {0: 6000, 1: "new row"})
        db.freeze_table("t")
        second = incremental_export(db.txn_manager, info.table, since=first.cursor)
        apply(second)
        reader = db.begin()
        engine = {
            row.get(0): row.get(1) for _, row in info.table.scan(reader)
        }
        db.commit(reader)
        assert state == engine


class TestBackgroundThreads:
    def test_background_maintenance_freezes_blocks(self):
        db = Database(cold_threshold_epochs=1)
        info = db.create_table(
            "t", [ColumnSpec("id", INT64), ColumnSpec("s", UTF8)],
            block_size=1 << 13, watch_cold=True,
        )
        db.start_background(gc_interval=0.002, transform_interval=0.004)
        try:
            with db.transaction() as txn:
                for i in range(900):
                    info.table.insert(txn, {0: i, 1: "v"})
            import time

            deadline = time.monotonic() + 5.0
            from repro.storage.constants import BlockState

            while time.monotonic() < deadline:
                if info.table.block_states()[BlockState.FROZEN] >= 2:
                    break
                time.sleep(0.01)
        finally:
            db.stop_background()
        from repro.storage.constants import BlockState

        assert info.table.block_states()[BlockState.FROZEN] >= 2

    def test_start_stop_idempotent(self):
        db = Database()
        db.start_background()
        db.start_background()  # no-op
        db.stop_background()
        db.stop_background()  # no-op

    def test_writes_remain_correct_under_background_maintenance(self):
        # Tuples are reached through the index because background
        # compaction moves them between slots while we write.
        import random

        db = Database(cold_threshold_epochs=1)
        info = db.create_table(
            "t", [ColumnSpec("id", INT64), ColumnSpec("s", UTF8)],
            block_size=1 << 12, watch_cold=True,
        )
        index = db.create_index("t", "pk", ["id"])
        db.start_background(gc_interval=0.001, transform_interval=0.002)
        rng = random.Random(2)
        expected: dict[int, str] = {}
        try:
            for step in range(400):
                key = rng.randrange(120)

                def body(txn, key=key):
                    hits = index.lookup(txn, (key,))
                    if not hits:
                        info.table.insert(txn, {0: key, 1: f"v{key}"})
                        return f"v{key}"
                    slot, _ = hits[0]
                    value = f"u{key}-{rng.randint(0, 9)}"
                    if not info.table.update(txn, slot, {1: value}):
                        from repro.errors import TransactionAborted

                        raise TransactionAborted("retry")
                    return value

                expected[key] = db.run_transaction(body, retries=8)
        finally:
            db.stop_background()
        reader = db.begin()
        state = {row.get(0): row.get(1) for _, row in info.table.scan(reader)}
        db.commit(reader)
        assert state == expected


def scan_counts(db, info, range_filters=None):
    """Run a scan; return it with the rows it examined and selected."""
    scanner = TableScanner(
        db.txn_manager, info.table, [0], range_filters=range_filters
    )
    examined = selected = 0
    for batch in scanner.batches():
        examined += batch.num_rows
        selected += batch.num_rows if batch.selection is None else len(batch.selection)
    return scanner, examined, selected


class TestExplain:
    """What a scanner's counters say about pruning and the fast path."""

    def test_explain_reports_pruning_and_fast_path(self):
        db, info, _ = build(rows=1200)
        scanner, examined, selected = scan_counts(db, info, {0: (0, 50)})
        assert scanner.blocks_pruned >= 1
        assert scanner.frozen_blocks_scanned >= 1
        assert scanner.hot_blocks_scanned == 0
        assert selected == 51
        assert examined < 1200

    def test_explain_unfiltered(self):
        db, info, _ = build(rows=300)
        scanner, examined, selected = scan_counts(db, info)
        assert selected == examined == 300
        assert scanner.blocks_pruned == 0
