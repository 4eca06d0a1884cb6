"""Ablation: vectorized hot-block scans vs the row-at-a-time baseline.

The vectorized snapshot scan copies a hot block's fixed-width columns
under one latch acquisition and patches version chains only where they
exist, instead of taking the latch and walking the chain for every slot
(`rowwise_scan`, one `DataTable.select` per row — the row engine).  This
bench aggregates over a hot table — part of it churned so version chains
are present — through both paths and reports rows/sec and the speedup.
"""

from __future__ import annotations

import time

import pytest

from repro import ColumnSpec, Database, FLOAT64, INT64, UTF8
from repro.bench.reporting import format_table
from repro.query import TableScanner, aggregate
from repro.storage.data_table import rowwise_scan

from conftest import publish, scaled

ROWS = scaled(30_000, minimum=5_000)
#: Fraction of rows updated before measuring, so the vectorized path has
#: real version chains to patch (not just the clean-block fast case).
CHURN_EVERY = 20


@pytest.fixture(scope="module")
def hot_table():
    db = Database(logging_enabled=False)
    info = db.create_table(
        "h",
        [
            ColumnSpec("id", INT64),
            ColumnSpec("amount", FLOAT64),
            ColumnSpec("note", UTF8),
        ],
        block_size=1 << 14,
    )
    slots = []
    with db.transaction() as txn:
        for i in range(ROWS):
            slots.append(
                info.table.insert(txn, {0: i, 1: float(i % 97), 2: f"n-{i}"})
            )
    db.quiesce()  # unlink the bulk-load chains; churn below re-creates some
    with db.transaction() as txn:
        for i in range(0, ROWS, CHURN_EVERY):
            info.table.update(txn, slots[i], {1: -1.0})
    return db, info


def hot_sum(db, info):
    scanner = TableScanner(db.txn_manager, info.table, column_ids=[0, 1])
    result = aggregate(scanner, value_column=1)
    return (result.count, result.total), scanner


def rowwise_sum(db, info):
    txn = db.txn_manager.begin()
    amounts = [row.get(1) for _, row in rowwise_scan(info.table, txn, [0, 1])]
    db.txn_manager.commit(txn)
    return len(amounts), sum(amounts)


def test_vectorized_hot_scan(benchmark, hot_table):
    db, info = hot_table
    (count, _), scanner = benchmark.pedantic(
        lambda: hot_sum(db, info), rounds=1, iterations=1
    )
    assert count == ROWS
    assert scanner.hot_blocks_scanned >= 1


def test_rowwise_hot_scan(benchmark, hot_table):
    db, info = hot_table
    count, _ = benchmark.pedantic(
        lambda: rowwise_sum(db, info), rounds=1, iterations=1
    )
    assert count == ROWS


def test_report_scan_vectorized_ablation(benchmark, hot_table):
    db, info = hot_table

    def run():
        began = time.perf_counter()
        fast_result, fast_scanner = hot_sum(db, info)
        fast_seconds = time.perf_counter() - began
        began = time.perf_counter()
        slow_result = rowwise_sum(db, info)
        slow_seconds = time.perf_counter() - began
        assert fast_result == slow_result
        assert fast_result[0] == ROWS
        return fast_seconds, slow_seconds, fast_scanner

    fast_seconds, slow_seconds, scanner = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    speedup = slow_seconds / fast_seconds
    publish(
        "ablation_scan_vectorized",
        format_table(
            f"Ablation — vectorized hot-block scan ({ROWS} rows, "
            f"1/{CHURN_EVERY} churned)",
            ["path", "seconds", "rows/sec", "speedup"],
            [
                (
                    "row-at-a-time",
                    f"{slow_seconds:.4f}",
                    f"{ROWS / slow_seconds:,.0f}",
                    "1.0x",
                ),
                (
                    "vectorized",
                    f"{fast_seconds:.4f}",
                    f"{ROWS / fast_seconds:,.0f}",
                    f"{speedup:.1f}x",
                ),
                (
                    "rows patched",
                    str(scanner.rows_patched),
                    "",
                    "",
                ),
            ],
        ),
    )
    # The latch-once bulk-copy path must beat per-tuple select by a wide
    # margin (acceptance floor from the issue).
    assert speedup >= 5.0, f"vectorized speedup only {speedup:.1f}x"
