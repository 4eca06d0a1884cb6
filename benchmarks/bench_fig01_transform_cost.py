"""Figure 1: data transformation costs.

The motivation experiment: move a TPC-H LINEITEM table out of an OLTP
system into an analytics runtime three ways —

- **In-Memory**: the table is already columnar Arrow; hand the buffers over
  (the paper's theoretical best case, loading from a buffer in the Python
  runtime),
- **CSV**: export to CSV text and parse it back (PostgreSQL COPY),
- **Python ODBC**: drive every row through a row-oriented wire protocol and
  a driver-side parse.

Paper shape (SF 10): In-Memory 8.38 s ≪ CSV ~284 s ≪ ODBC ~1380 s; query
processing itself is ~0.004% of export time.  The reproduction uses a small
scale factor; the ordering and the orders-of-magnitude gaps are the claim.
"""

from __future__ import annotations

import time

import pytest

from repro import Database
from repro.bench.reporting import format_table
from repro.export import postgres_wire
from repro.export.flight import client_receive, export_stream
from repro.frame import DataFrame
from repro.storage.data_table import rowwise_scan
from repro.workloads.tpch import LINEITEM_COLUMNS, LineitemGenerator, TpchConfig

_COLUMN_NAMES = [spec.name for spec in LINEITEM_COLUMNS]


def _rows_to_frame(rows):
    """The "load into the dataframe" step shared by the row-based paths."""
    columns = {name: [] for name in _COLUMN_NAMES}
    for row in rows:
        for name, value in zip(_COLUMN_NAMES, row):
            columns[name].append(value)
    return DataFrame(columns)

from conftest import publish, scaled

SCALE_FACTOR = scaled(3000, minimum=500) / 6_000_000  # rows -> SF


@pytest.fixture(scope="module")
def lineitem():
    db = Database(logging_enabled=False, cold_threshold_epochs=1)
    generator = LineitemGenerator(TpchConfig(scale_factor=SCALE_FACTOR, block_size=1 << 16))
    info = generator.load_into(db)
    db.freeze_table("lineitem", max_passes=16)
    return db, info, generator


def _in_memory_load(db, info):
    stream = export_stream(db.txn_manager, info.table)
    return DataFrame.from_arrow(client_receive(stream.payload))


def _csv_load(generator):
    raw = generator.to_csv(generator.rows())
    return _rows_to_frame(generator.from_csv(raw))


def _odbc_load(db, info):
    txn = db.txn_manager.begin()
    rows = [tuple(r.to_dict().values()) for _, r in rowwise_scan(info.table, txn)]
    db.txn_manager.commit(txn)
    raw, _ = postgres_wire.encode_rows(rows)
    return _rows_to_frame(postgres_wire.decode_rows(raw))


def test_in_memory_load(benchmark, lineitem):
    db, info, _ = lineitem
    frame = benchmark(_in_memory_load, db, info)
    assert len(frame) == info.table.live_tuple_count()


def test_csv_load(benchmark, lineitem):
    _, info, generator = lineitem
    frame = benchmark(_csv_load, generator)
    assert len(frame) == info.table.live_tuple_count()


def test_odbc_load(benchmark, lineitem):
    db, info, _ = lineitem
    frame = benchmark(_odbc_load, db, info)
    assert len(frame) == info.table.live_tuple_count()


def test_report_figure_1(benchmark, lineitem):
    db, info, generator = lineitem

    def run():
        results = []
        for name, path in (
            ("In-Memory", lambda: _in_memory_load(db, info)),
            ("CSV", lambda: _csv_load(generator)),
            ("Python ODBC", lambda: _odbc_load(db, info)),
        ):
            began = time.perf_counter()
            path()
            results.append((name, time.perf_counter() - began))
        return results

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    base = results[0][1]
    rows = [
        (name, f"{seconds:.4f}", f"{seconds / base:.1f}x")
        for name, seconds in results
    ]
    publish(
        "fig01_transform_cost",
        format_table(
            f"Figure 1 — LINEITEM ({info.table.live_tuple_count()} rows) into a dataframe",
            ["method", "seconds", "vs in-memory"],
            rows,
        ),
    )
    # The paper's ordering must hold.
    assert results[0][1] < results[1][1] < results[2][1]
