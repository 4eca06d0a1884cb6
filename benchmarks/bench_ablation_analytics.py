"""Ablation: analytics in-engine vs export-then-analyze.

Not a paper figure, but the paper's thesis taken one step further: when the
storage format is the analytics format, a query can skip even the network
hand-off.  Compares SUM(amount) three ways — vectorized in-engine over
frozen blocks, Arrow export then client-side aggregation, and PostgreSQL
wire export then client-side aggregation.
"""

from __future__ import annotations

import time

import pytest

from repro import ColumnSpec, Database, FLOAT64, INT64
from repro.bench.reporting import format_table
from repro.export import TableExporter, postgres_wire
from repro.export.flight import client_receive, export_stream
from repro.query import TableScanner, aggregate
from repro.storage.data_table import rowwise_scan

from conftest import publish, scaled

ROWS = scaled(30_000, minimum=10_000)


@pytest.fixture(scope="module")
def sales():
    db = Database(logging_enabled=False, cold_threshold_epochs=1)
    info = db.create_table(
        "sales",
        [ColumnSpec("region", INT64), ColumnSpec("amount", FLOAT64)],
        block_size=1 << 16,
        watch_cold=True,
    )
    with db.transaction() as txn:
        for i in range(ROWS):
            info.table.insert(txn, {0: i % 8, 1: float(i % 1000)})
    db.freeze_table("sales")
    return db, info


def in_engine(db, info) -> float:
    return aggregate(
        TableScanner(db.txn_manager, info.table, column_ids=[1]), value_column=1
    ).total


def via_flight(db, info) -> float:
    table = client_receive(export_stream(db.txn_manager, info.table).payload)
    return sum(v for v in table.column_values("amount") if v is not None)


def via_postgres(db, info) -> float:
    txn = db.txn_manager.begin()
    rows = [tuple(r.to_dict().values()) for _, r in rowwise_scan(info.table, txn)]
    db.txn_manager.commit(txn)
    raw, _ = postgres_wire.encode_rows(rows)
    decoded = postgres_wire.decode_rows(raw)
    return sum(float(r[1]) for r in decoded if r[1] is not None)


def test_in_engine_aggregate(benchmark, sales):
    db, info = sales
    total = benchmark(in_engine, db, info)
    assert total > 0


def test_flight_then_aggregate(benchmark, sales):
    db, info = sales
    total = benchmark.pedantic(lambda: via_flight(db, info), rounds=1, iterations=1)
    assert total > 0


def test_report_analytics_ablation(benchmark, sales):
    db, info = sales

    def run():
        rows = []
        for name, fn in (
            ("In-engine (vectorized)", in_engine),
            ("Arrow export + client agg", via_flight),
            ("PG wire export + client agg", via_postgres),
        ):
            began = time.perf_counter()
            total = fn(db, info)
            rows.append((name, time.perf_counter() - began, total))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    publish(
        "ablation_analytics",
        format_table(
            f"Ablation — SUM(amount) over {ROWS} rows, three pipelines",
            ["pipeline", "seconds", "result"],
            [(n, f"{s:.4f}", f"{t:,.0f}") for n, s, t in rows],
        ),
    )
    totals = {t for _, _, t in rows}
    assert len(totals) == 1  # all three agree on the answer
    in_engine_s, flight_s, pg_s = (s for _, s, _ in rows)
    assert in_engine_s < flight_s < pg_s
