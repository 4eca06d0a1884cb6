"""Figure 11: row-store vs column-store raw storage speed.

Inserts and updates through the same transactional storage layer, with the
row-store simulated as one wide fixed-length column (all attributes
contiguous).  The x axis scales the number of 8-byte attributes; for
inserts it is the tuple width, for updates the number of attributes
modified (out of 64).

Paper shape: no large difference overall (<40% even for inserts); the
column-store *wins* updates that touch few attributes (smaller footprint),
while the row-store edges ahead as the count grows — version maintenance
being the shared fixed cost.  A pure-Python engine exaggerates per-column
dispatch overhead, so the insert gap here is wider than the paper's; the
update crossover is the preserved shape.
"""

from __future__ import annotations

from repro import Database
from repro.bench.reporting import format_series
from repro.workloads.rowcol import run_inserts, run_updates

from conftest import publish, scaled

ATTRIBUTE_AXIS = [1, 2, 4, 8, 16, 32, 64]
OPS = scaled(2000, minimum=500)


def _db():
    return Database(logging_enabled=False)


def test_row_insert_wide(benchmark):
    result = benchmark.pedantic(
        lambda: run_inserts(_db(), "row", 64, OPS), rounds=1, iterations=1
    )
    assert result.ops_per_sec > 0


def test_column_insert_wide(benchmark):
    result = benchmark.pedantic(
        lambda: run_inserts(_db(), "column", 64, OPS), rounds=1, iterations=1
    )
    assert result.ops_per_sec > 0


def test_column_update_narrow(benchmark):
    result = benchmark.pedantic(
        lambda: run_updates(_db(), "column", 64, OPS, updated_attributes=1),
        rounds=1,
        iterations=1,
    )
    assert result.ops_per_sec > 0


def test_report_figure_11(benchmark):
    def run():
        series = {
            "Row Insert": [],
            "Column Insert": [],
            "Row Update": [],
            "Column Update": [],
        }
        for attrs in ATTRIBUTE_AXIS:
            series["Row Insert"].append(run_inserts(_db(), "row", attrs, OPS).ops_per_sec)
            series["Column Insert"].append(
                run_inserts(_db(), "column", attrs, OPS).ops_per_sec
            )
            # Updates modify `attrs` of 64 attributes (the paper's x axis).
            series["Row Update"].append(
                run_updates(_db(), "row", 64, OPS, updated_attributes=attrs).ops_per_sec
            )
            series["Column Update"].append(
                run_updates(_db(), "column", 64, OPS, updated_attributes=attrs).ops_per_sec
            )
        return series

    series = benchmark.pedantic(run, rounds=1, iterations=1)
    publish(
        "fig11_row_vs_column",
        format_series(
            "Figure 11 — row vs column storage throughput (ops/s)",
            "#attrs",
            ATTRIBUTE_AXIS,
            {name: [round(v) for v in values] for name, values in series.items()},
        ),
    )
    # The column-store must be competitive on narrow updates (the paper has
    # it slightly ahead; allow timing noise)...
    assert series["Column Update"][0] > series["Row Update"][0] * 0.7
    # ...and the row-store must close the gap decisively by 64 attributes —
    # the crossover trend is the figure's claim.
    narrow_ratio = series["Column Update"][0] / series["Row Update"][0]
    wide_ratio = series["Column Update"][-1] / series["Row Update"][-1]
    assert wide_ratio < narrow_ratio
