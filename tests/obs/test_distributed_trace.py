"""Acceptance: one distributed trace spanning the coordinator and shards.

A two-shard cluster runs a TPC-C cross-shard payment (2PC) and a scan of a
frozen shard table under one root span.  The single
``render_chrome_trace()`` document must then contain the coordinator's 2PC
spans, both participant shards' spans and the scan, all linked by the
root's trace id, and the 2PC decision event must carry that id too.
"""

import json

import pytest

from repro import obs
from repro.cluster import ShardedDatabase
from repro.query.scan import TableScanner
from repro.workloads.tpcc.driver import TpccDriver
from repro.workloads.tpcc.schema import TPCC_SHARD_KEYS, TpccConfig
from repro.workloads.tpcc.transactions import TpccTransactions


@pytest.fixture(autouse=True)
def _obs_enabled():
    was = obs.is_enabled()
    obs.configure(enabled=True)
    yield
    obs.configure(enabled=was)


@pytest.fixture
def cluster():
    config = TpccConfig(
        warehouses=2,
        districts_per_warehouse=2,
        customers_per_district=12,
        items=80,
        initial_orders_per_district=8,
        stock_per_warehouse=40,
        payment_remote_rate=1.0,  # every payment pays a remote warehouse
        block_size=1 << 12,
    )
    db = ShardedDatabase(
        n_shards=2,
        shard_keys=TPCC_SHARD_KEYS,
        cold_threshold_epochs=1,
        logging_enabled=False,
    )
    TpccDriver(db, config).setup()
    yield db, config
    db.close()


def test_cross_shard_payment_and_scan_share_one_trace(cluster):
    db, config = cluster
    executor = TpccTransactions(db, config, seed=7)

    with obs.span("acceptance.root") as root:
        trace_id = root.trace_id
        assert executor.payment(1), "cross-shard payment must commit"
        # A scan of shard 0's frozen stock table rides the same trace.
        shard = db.shards[0]
        shard.freeze_table("stock")
        scanner = TableScanner(shard.txn_manager, shard.catalog.table("stock"))
        assert sum(batch.num_rows for batch in scanner.batches()) > 0
        assert scanner.frozen_blocks_scanned > 0

    doc = json.loads(obs.render_chrome_trace(db.recorder))
    in_trace = [
        e
        for e in doc["traceEvents"]
        if e["ph"] == "X" and e["args"].get("trace_id") == trace_id
    ]
    names = {e["name"] for e in in_trace}

    # Coordinator 2PC spans.
    assert "cluster.2pc" in names
    assert "cluster.2pc.decide" in names
    # Participant-shard spans: one prepare per shard, then the commits.
    prepares = [e for e in in_trace if e["name"] == "cluster.2pc.prepare"]
    assert {e["args"]["shard"] for e in prepares} == {0, 1}
    assert "cluster.2pc.commit_prepared" in names
    # The scan joined the same trace.
    assert "query.scan" in names

    # The 2PC journal events carry the trace id too, so db.timeline()
    # attaches the shards' spans.
    decide = db.recorder.events(kind="cluster.decide")[-1]
    assert decide.attrs["trace_id"] == trace_id
