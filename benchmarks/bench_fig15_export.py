"""Figure 15: data export throughput vs fraction of frozen blocks.

An ORDER_LINE-shaped table is driven to a controlled %frozen, then exported
through the four mechanisms of Section 5.  Frozen blocks ship as raw Arrow
buffers (Flight) or raw DMA (RDMA); hot blocks force a transactional
materialization first.

Paper shape: RDMA saturates the NIC and Flight reaches ~80% of it when all
blocks are frozen — orders of magnitude above the wire protocols; as the
hot fraction grows, Flight decays toward the vectorized protocol and RDMA
tracks slightly below Flight (the NIC bypasses the cache holding the
freshly materialized blocks); the PostgreSQL and vectorized protocols are
flat — they serialize everything regardless of block state.
"""

from __future__ import annotations

import pytest

from repro import Database
from repro.bench.reporting import format_series
from repro.export import TableExporter
from repro.export.flight import client_receive, export_stream
from repro.storage.constants import BlockState
from repro.storage.layout import BlockLayout
from repro.workloads.tpcc.schema import TPCC_TABLES

from conftest import publish, scaled

FROZEN_AXIS = [0, 1, 5, 10, 20, 40, 60, 80, 100]
METHODS = ["RDMA", "Arrow-Flight", "Vectorized", "PostgreSQL"]
_METHOD_KEY = {
    "RDMA": "rdma",
    "Arrow-Flight": "flight",
    "Vectorized": "vectorized",
    "PostgreSQL": "postgres",
}
BLOCK_SIZE = 1 << 15
_SLOTS = BlockLayout(TPCC_TABLES["order_line"], BLOCK_SIZE).num_slots
#: Whole blocks only: a partly filled insertion block never freezes, so
#: the 100 %-frozen point would still materialize it tuple by tuple.
ROWS = _SLOTS * max(1, round(scaled(6000, minimum=2000) / _SLOTS))


def build_order_line(**db_kwargs):
    """An order_line table of ``ROWS`` rows, fully frozen."""
    db = Database(logging_enabled=False, cold_threshold_epochs=1, **db_kwargs)
    info = db.create_table(
        "order_line", TPCC_TABLES["order_line"], block_size=BLOCK_SIZE, watch_cold=True
    )
    import random

    rng = random.Random(5)
    with db.transaction() as txn:
        for i in range(ROWS):
            info.table.insert(txn, {
                0: i // 10, 1: 1 + i % 10, 2: 1, 3: i % 15, 4: rng.randint(1, 1000),
                5: 1, 6: 0, 7: 5, 8: rng.uniform(1, 9999),
                9: "".join(rng.choice("abcdef0123456789") for _ in range(24)),
            })
    db.freeze_table("order_line", max_passes=16)
    return db, info


@pytest.fixture(scope="module")
def order_line_db():
    """An order_line table, fully frozen, reused across the sweep."""
    return build_order_line()


def set_frozen_fraction(info, fraction: float) -> float:
    """Reheat blocks until only ``fraction`` remain frozen; returns actual."""
    blocks = info.table.blocks
    want_frozen = round(len(blocks) * fraction)
    frozen_blocks = [b for b in blocks if b.state is BlockState.FROZEN]
    for block in frozen_blocks[want_frozen:]:
        block.touch_hot()
    frozen_now = sum(1 for b in blocks if b.state is BlockState.FROZEN)
    return frozen_now / len(blocks)


def refreeze(db, info):
    db.freeze_table("order_line", max_passes=16)


def test_flight_fully_frozen(benchmark, order_line_db):
    db, info = order_line_db
    refreeze(db, info)
    exporter = TableExporter(db.txn_manager, info.table)
    result = benchmark.pedantic(lambda: exporter.export("flight"), rounds=1, iterations=1)
    assert result.rows == ROWS


def test_flight_dictionary_frozen(benchmark):
    """Dictionary-compressed cold blocks (§4.4, Fig. 12's variant) ship
    through Flight decoded to plain varbinary: the same rows and values as
    the gather-frozen twin."""
    twins = {fmt: build_order_line(cold_format=fmt) for fmt in ("gather", "dictionary")}
    exporters = {}
    for fmt, (db, info) in twins.items():
        assert all(b.state is BlockState.FROZEN for b in info.table.blocks)
        exporters[fmt] = TableExporter(db.txn_manager, info.table)
    result = benchmark.pedantic(
        lambda: exporters["dictionary"].export("flight"), rounds=1, iterations=1
    )
    assert result.rows == exporters["gather"].export("flight").rows == ROWS
    received = {
        fmt: client_receive(export_stream(db.txn_manager, info.table).payload)
        for fmt, (db, info) in twins.items()
    }
    for column in ("ol_i_id", "ol_amount"):
        assert sum(received["dictionary"].column_values(column)) == sum(
            received["gather"].column_values(column)
        )
    assert sorted(received["dictionary"].column_values("ol_dist_info")) == sorted(
        received["gather"].column_values("ol_dist_info")
    )


def test_postgres_export(benchmark, order_line_db):
    db, info = order_line_db
    exporter = TableExporter(db.txn_manager, info.table)
    result = benchmark.pedantic(lambda: exporter.export("postgres"), rounds=1, iterations=1)
    assert result.rows == ROWS


def test_report_figure_15(benchmark, order_line_db):
    db, info = order_line_db

    def run():
        series = {m: [] for m in METHODS}
        for frozen_pct in FROZEN_AXIS:
            refreeze(db, info)
            set_frozen_fraction(info, frozen_pct / 100.0)
            exporter = TableExporter(db.txn_manager, info.table)
            for method in METHODS:
                result = exporter.export(_METHOD_KEY[method])
                series[method].append(round(result.throughput_mb_per_sec, 2))
        return series

    series = benchmark.pedantic(run, rounds=1, iterations=1)
    publish(
        "fig15_data_export",
        format_series(
            f"Figure 15 — export throughput (MB/s), {ROWS} order lines",
            "%frozen",
            FROZEN_AXIS,
            series,
        ),
    )
    last = -1  # fully frozen
    # Fully frozen: both zero-copy paths dominate the wire protocols.
    assert series["Arrow-Flight"][last] > 3 * series["Vectorized"][last]
    assert series["RDMA"][last] >= series["Arrow-Flight"][last]
    # Wire protocols are insensitive to block state (flat curves).
    assert series["PostgreSQL"][last] < series["PostgreSQL"][0] * 3
    # Everything hot: Flight decays toward the vectorized protocol.
    assert series["Arrow-Flight"][0] < series["Arrow-Flight"][last] / 2
