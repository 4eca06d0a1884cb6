"""The TPC-C profiles read through per-clause projections (§3.1).

Each profile materializes only the columns its spec clause selects plus
the ones its UPDATEs increment.  A projection changes what is read, never
what is written: the log a seeded run leaves is pinned byte for byte.
"""

import hashlib

import pytest

from repro import Database
from repro.cluster import ShardedDatabase
from repro.errors import WorkloadError
from repro.workloads.tpcc import TpccConfig, TpccTransactions
from repro.workloads.tpcc import transactions as tpcc_transactions
from repro.workloads.tpcc.consistency import check_consistency
from repro.workloads.tpcc.driver import TpccDriver
from repro.workloads.tpcc.loader import TpccLoader
from repro.workloads.tpcc.schema import TPCC_SHARD_KEYS, create_tpcc_tables

PROFILES = ("new_order", "payment", "order_status", "delivery", "stock_level")

#: sha256 of the log after the seeded run below, captured before the
#: profiles read through projections (every read was ``SELECT *``).
GOLDEN_LOG_SHA256 = "5a3709fcafb89984da42970bad0ab935eae282c08467fa6238d59206c1f09302"
GOLDEN_COMMITTED = {profile: 80 for profile in PROFILES}


def test_projected_reads_write_the_same_log(monkeypatch):
    monkeypatch.setattr(TpccTransactions, "_now", lambda self: 1_600_000_000_000_000)
    db = Database(cold_threshold_epochs=1)
    config = TpccConfig.small()
    create_tpcc_tables(db, config)
    TpccLoader(db, config, seed=3).load()
    tx = TpccTransactions(db, config, seed=5)
    for i in range(400):
        getattr(tx, PROFILES[i % len(PROFILES)])()
    db.flush_all()
    assert tx.counters.committed == GOLDEN_COMMITTED
    assert hashlib.sha256(db.log_contents()).hexdigest() == GOLDEN_LOG_SHA256


@pytest.mark.parametrize("engine", ["database", "sharded"])
def test_every_profile_on_both_engines(engine):
    if engine == "database":
        db = Database(cold_threshold_epochs=1)
        config = TpccConfig.small()
    else:
        db = ShardedDatabase(
            n_shards=2, shard_keys=TPCC_SHARD_KEYS, cold_threshold_epochs=1
        )
        config = TpccConfig.small(warehouses=2)
    try:
        TpccDriver(db, config, seed=1).setup()
        tx = TpccTransactions(db, config, seed=2)
        for _ in range(6):
            for profile in PROFILES:
                getattr(tx, profile)()
        assert all(tx.counters.committed[p] > 0 for p in PROFILES), tx.counters
        report = check_consistency(db)
        assert report.consistent, report.violations
    finally:
        db.close()


def test_misspelled_projection_column_fails_at_construction(monkeypatch):
    db = Database()
    config = TpccConfig.small()
    broken = {**tpcc_transactions.READS["stock_level"], "stock": ("s_quantitty",)}
    monkeypatch.setitem(tpcc_transactions.READS, "stock_level", broken)
    with pytest.raises(WorkloadError, match="s_quantitty"):
        TpccTransactions(db, config)
