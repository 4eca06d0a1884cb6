"""Figure 10: TPC-C performance with the transformation pipeline.

(a) Throughput for three configurations — transformation disabled,
varlen gather, dictionary compression — measured on the real engine with
one worker.  The paper's worker-thread axis is not reproduced: one
interpreter lock serializes the workers, so a thread axis here would be a
model, not a measurement.

(b) Fraction of cold-table blocks in the COOLING/FROZEN states at the end
of each run.

Paper shape: ≤10% throughput overhead for gather, more for dictionary
compression; near-complete block coverage for gather, lagging coverage for
dictionary compression.
"""

from __future__ import annotations

import pytest

from repro import Database, ShardedDatabase
from repro.bench.reporting import format_table
from repro.workloads.tpcc import TpccConfig, TpccDriver
from repro.workloads.tpcc.consistency import check_consistency
from repro.workloads.tpcc.schema import TPCC_SHARD_KEYS

from conftest import publish, scaled, shard_counts

TXNS = scaled(700, minimum=300)


def _one_trial(cold_format: str | None) -> tuple[float, float]:
    """One measured TPC-C run under a transformation configuration."""
    db = Database(
        cold_threshold_epochs=1,
        cold_format=cold_format or "gather",
        logging_enabled=True,
    )
    driver = TpccDriver(db, TpccConfig.small())
    driver.setup()
    # The paper runs transformation on a dedicated thread; its cost is
    # *interference* with the workers, not serialized pipeline work.
    # Intervals are scaled to this engine's throughput: the paper's ~10 ms
    # GC period against ~100k txn/s corresponds to tens of ms against our
    # hundreds of txn/s.
    if cold_format is not None:
        db.start_background(gc_interval=0.02, transform_interval=0.05)
    try:
        run = driver.run(transactions_per_worker=TXNS)
    finally:
        if cold_format is not None:
            db.stop_background()
            db.run_maintenance(passes=3)
    return run.throughput, driver.cold_coverage()


@pytest.fixture(scope="module")
def measurements():
    """Best-of-N per configuration, trials interleaved round-robin.

    Single 400-transaction runs swing with machine noise; interleaving the
    configurations' trials exposes them to the same noise environment so
    the *relative* overheads — what the figure is about — stay meaningful.
    """
    configs = {
        "No Transformation": None,
        "Varlen Gather": "gather",
        "Dictionary Compression": "dictionary",
    }
    best: dict[str, tuple[float, float]] = {name: (0.0, 0.0) for name in configs}
    for _ in range(3):
        for name, cold_format in configs.items():
            throughput, coverage = _one_trial(cold_format)
            if throughput > best[name][0]:
                best[name] = (throughput, coverage)
    return best


def test_tpcc_no_transformation(benchmark):
    db = Database(cold_threshold_epochs=1)
    driver = TpccDriver(db, TpccConfig.small())
    driver.setup()
    result = benchmark.pedantic(
        lambda: driver.run(transactions_per_worker=150), rounds=1, iterations=1
    )
    assert result.committed > 0


def test_tpcc_with_gather(benchmark):
    db = Database(cold_threshold_epochs=1, cold_format="gather")
    driver = TpccDriver(db, TpccConfig.small())
    driver.setup()
    result = benchmark.pedantic(
        lambda: driver.run(transactions_per_worker=150, maintenance_every=40),
        rounds=1,
        iterations=1,
    )
    assert result.committed > 0


def test_tpcc_with_dictionary(benchmark):
    db = Database(cold_threshold_epochs=1, cold_format="dictionary")
    driver = TpccDriver(db, TpccConfig.small())
    driver.setup()
    result = benchmark.pedantic(
        lambda: driver.run(transactions_per_worker=150, maintenance_every=40),
        rounds=1,
        iterations=1,
    )
    assert result.committed > 0


def _sharded_trial(n_shards: int) -> tuple[float, int, int]:
    """One TPC-C run against an ``n_shards``-way cluster.

    One warehouse per shard, so the spec's 15% remote payments and ~10%
    remote new-order lines become genuine cross-shard 2PC transactions.
    Returns ``(throughput, committed, cross_shard_commits)``.
    """
    if n_shards == 1:
        db = Database(cold_threshold_epochs=1, logging_enabled=True)
    else:
        db = ShardedDatabase(
            n_shards=n_shards,
            shard_keys=TPCC_SHARD_KEYS,
            cold_threshold_epochs=1,
            logging_enabled=True,
        )
    driver = TpccDriver(db, TpccConfig.small(warehouses=n_shards))
    driver.setup()
    run = driver.run(transactions_per_worker=scaled(300, minimum=150))
    report = check_consistency(db)
    assert report.consistent, "; ".join(report.violations)
    cross = 0
    if n_shards > 1:
        cross = int(db.obs.counter("cluster.txn_cross_shard_total").value)
    return run.throughput, run.committed, cross


def test_report_oltp_sharding(benchmark, request):
    """Throughput vs shard count with 2PC engaged on remote transactions.

    Select shard counts with ``--shards N[,N...]`` (default ``1,2,4``).
    The interesting shape is the *cost* of distribution on a single
    machine: every shard competes for the same interpreter, and
    cross-shard transactions pay prepare + decision forcing, so
    throughput should not scale with shard count — this benchmark prices
    the coordination, it does not simulate a real multi-node speedup.
    """
    counts = shard_counts(request.config)

    def run():
        return {n: _sharded_trial(n) for n in counts}

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    base = results[counts[0]][0]
    rows = [
        (
            str(n),
            f"{tput:.0f}",
            f"{tput / base:.2f}x",
            str(committed),
            str(cross),
        )
        for n, (tput, committed, cross) in results.items()
    ]
    publish(
        "fig10c_sharded_oltp",
        format_table(
            "Figure 10c — TPC-C on the sharded engine (one warehouse per "
            "shard; cross-shard commits via 2PC)",
            ["shards", "txn/s", "relative", "committed", "cross-shard 2PC"],
            rows,
        ),
    )
    for n, (tput, committed, cross) in results.items():
        assert committed > 0
        if n > 1:
            assert cross > 0, f"no cross-shard traffic at {n} shards"


def test_report_figure_10(benchmark, measurements):
    rates = benchmark.pedantic(
        lambda: {name: rate for name, (rate, _) in measurements.items()},
        rounds=1,
        iterations=1,
    )
    base_rate = rates["No Transformation"]
    publish(
        "fig10a_tpcc_throughput",
        format_table(
            "Figure 10a — TPC-C throughput (txn/s; measured, 1 worker)",
            ["configuration", "txn/s", "relative"],
            [
                (name, f"{rate:.0f}", f"{rate / base_rate:.2f}x")
                for name, rate in rates.items()
            ],
        ),
    )
    coverage_rows = [
        (name, f"{coverage * 100:.0f}%")
        for name, (_, coverage) in measurements.items()
        if name != "No Transformation"
    ]
    publish(
        "fig10b_block_coverage",
        format_table(
            "Figure 10b — cold-table blocks in COOLING/FROZEN at end of run",
            ["configuration", "coverage"],
            coverage_rows,
        ),
    )
    # Paper shapes: the transformation's interference is bounded (the
    # paper reports <=10%; this machine resolves the effect to within a
    # ~20% noise band at this scale — the printed table carries the real
    # numbers); dictionary compression is never materially cheaper than
    # the gather.
    gather = rates["Varlen Gather"]
    assert gather >= base_rate * 0.80
    assert rates["Dictionary Compression"] <= gather * 1.10
