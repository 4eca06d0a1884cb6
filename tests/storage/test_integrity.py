"""Tests for the database integrity checker."""

import numpy as np
import pytest

from repro import ColumnSpec, Database, INT64, UTF8
from repro.storage.constants import BlockState
from repro.storage.integrity import check_database, check_table


def build(rows=900, freeze=True, cold_format="gather"):
    db = Database(logging_enabled=False, cold_threshold_epochs=1,
                  cold_format=cold_format)
    info = db.create_table(
        "t", [ColumnSpec("id", INT64), ColumnSpec("s", UTF8)],
        block_size=1 << 13, watch_cold=True,
    )
    with db.transaction() as txn:
        slots = [
            info.table.insert(txn, {0: i, 1: f"value-{i}-long-enough-to-spill"})
            for i in range(rows)
        ]
    if freeze:
        db.freeze_table("t")
    return db, info, slots


class TestHealthyStates:
    def test_hot_database_clean(self):
        db, info, _ = build(freeze=False)
        report = db.verify_integrity()
        assert report.ok, report.findings
        assert report.blocks_checked == len(info.table.blocks)

    def test_frozen_database_clean(self):
        db, info, _ = build()
        report = db.verify_integrity()
        assert report.ok, report.findings
        assert report.frozen_blocks_validated >= 2

    def test_dictionary_format_clean(self):
        db, info, _ = build(cold_format="dictionary")
        report = db.verify_integrity()
        assert report.ok, report.findings

    def test_mid_lifecycle_clean(self):
        db, info, slots = build()
        # Reheat one block with a write, leave it mid-churn.
        with db.transaction() as txn:
            info.table.update(txn, slots[0], {1: "changed-to-something-long!"})
        report = db.verify_integrity()
        assert report.ok, report.findings

    def test_after_heavy_churn_and_recovery(self):
        db, info, slots = build(freeze=False)
        import random

        rng = random.Random(1)
        for _ in range(150):
            with db.transaction() as txn:
                slot = rng.choice(slots)
                row = info.table.select(txn, slot)
                if row is not None:
                    info.table.update(txn, slot, {1: "u" * rng.randint(1, 40)})
        db.freeze_table("t")
        assert db.verify_integrity().ok


class TestCorruptionDetected:
    def test_dangling_heap_id(self):
        db, info, _ = build(freeze=False)
        block = info.table.blocks[0]
        # Free a heap entry out from under a live slot.
        from repro.storage.varlen import read_entry

        entry = read_entry(block.varlen_entry_view(1, 0))
        assert entry.owns_buffer
        block.varlen_heaps[1].free(entry.pointer)
        report = check_table(info.table)
        assert any("dangling heap id" in f for f in report.findings)

    def test_misdirected_chain_record(self):
        db, info, slots = build(freeze=False)
        writer = db.begin()
        info.table.update(writer, slots[0], {0: 99})
        block = info.table.blocks[0]
        # Move the chain head onto the wrong slot.
        block.version_ptrs[1] = block.version_ptrs[0]
        report = check_table(info.table)
        assert any("chain record points at" in f for f in report.findings)
        db.abort(writer)

    def test_frozen_block_with_gap(self):
        db, info, slots = build()
        frozen = next(b for b in info.table.blocks if b.state is BlockState.FROZEN)
        frozen.set_allocated(0, False)  # punch a hole behind its back
        report = check_table(info.table)
        assert any("dense prefix" in f for f in report.findings)

    def test_zone_map_violation(self):
        db, info, _ = build()
        frozen = next(b for b in info.table.blocks if b.state is BlockState.FROZEN)
        assert 0 in frozen.zone_maps
        frozen.column_view(0)[0] = 10**15  # out-of-zone value written raw
        report = check_table(info.table)
        assert any("zone map" in f for f in report.findings)

    def test_gathered_reference_out_of_bounds(self):
        db, info, _ = build()
        frozen = next(b for b in info.table.blocks if b.state is BlockState.FROZEN)
        offsets, values = frozen.gathered[1]
        frozen.gathered[1] = (offsets, values[: len(values) // 2])  # truncate
        report = check_table(info.table)
        assert not report.ok
