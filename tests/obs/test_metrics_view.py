"""Database.metrics() is a thin view over the obs registry: keys and semantics
must match the pre-registry implementation exactly."""

import pytest

from repro import ColumnSpec, Database, INT64, UTF8, obs

# The public metrics() contract. Adding a key is fine (append here); renaming
# or dropping one breaks benchmarks and dashboards — this test is the tripwire.
EXPECTED_KEYS = {
    "tables",
    "blocks_live",
    "blocks_freed",
    "block_states",
    "live_tuples",
    "txns_active",
    "txns_pending_gc",
    "gc_passes",
    "gc_records_unlinked",
    "gc_deferred_pending",
    "transform_groups_compacted",
    "transform_tuples_moved",
    "transform_blocks_frozen",
    "transform_freezes_preempted",
    "transform_queue_depth",
    "index_maintenance_ops",
    "wal_bytes_written",
    "wal_flushes",
}


@pytest.fixture(autouse=True)
def _obs_enabled():
    was = obs.is_enabled()
    obs.configure(enabled=True)
    yield
    obs.configure(enabled=was)


def _make_db(**kwargs):
    db = Database(**kwargs)
    info = db.create_table(
        "t",
        [ColumnSpec("id", INT64), ColumnSpec("name", UTF8)],
        block_size=1 << 14,
        watch_cold=True,
    )
    return db, info


def test_key_stability():
    db, _ = _make_db()
    assert set(db.metrics()) == EXPECTED_KEYS


def test_fresh_database_zero_state():
    db = Database()
    m = db.metrics()
    assert m["tables"] == 0
    assert m["txns_active"] == 0
    assert m["gc_passes"] == 0
    assert m["wal_bytes_written"] == 0
    assert m["transform_queue_depth"] == 0


def test_counts_track_engine_activity():
    db, info = _make_db(cold_threshold_epochs=1)
    rows = info.table.layout.num_slots * 2
    with db.transaction() as txn:
        for i in range(rows):
            info.table.insert(txn, {0: i, 1: f"row-{i}"})
    m = db.metrics()
    assert m["tables"] == 1
    assert m["live_tuples"] == rows
    assert m["txns_active"] == 0
    assert m["wal_bytes_written"] == db.log_manager.bytes_written > 0
    assert m["wal_flushes"] == db.log_manager.flush_count >= 1

    before = db.metrics()["gc_passes"]
    db.gc.run()
    assert db.metrics()["gc_passes"] == before + 1

    db.freeze_table("t")
    m = db.metrics()
    assert m["transform_blocks_frozen"] == db.transformer.stats.blocks_frozen > 0
    assert m["gc_records_unlinked"] == db.gc.stats.records_unlinked


def test_metrics_snapshot_keys():
    db, info = _make_db(logging_enabled=False, cold_threshold_epochs=1)
    rows = info.table.layout.num_slots * 2  # several blocks so some can freeze
    with db.transaction() as txn:
        for i in range(rows):
            info.table.insert(txn, {0: i, 1: f"row-{i}"})
    db.freeze_table("t")
    with db.transaction() as txn:
        info.table.insert(txn, {0: rows, 1: "x"})
    m = db.metrics()
    assert m["tables"] == 1
    assert m["live_tuples"] == rows + 1
    assert m["blocks_live"] >= 1
    assert m["transform_blocks_frozen"] >= 1
    assert m["wal_bytes_written"] == 0  # logging disabled
    assert set(m["block_states"]) == {"HOT", "COOLING", "FREEZING", "FROZEN"}


def test_quiesce_leaves_nothing_pending_gc():
    db, info = _make_db()
    with db.transaction() as txn:
        info.table.insert(txn, {0: 1, 1: "a"})
    db.quiesce()
    m = db.metrics()
    assert m["gc_passes"] >= 1
    assert m["txns_pending_gc"] == 0


def test_txns_active_is_live():
    db, info = _make_db()
    txn = db.begin()
    assert db.metrics()["txns_active"] == 1
    db.commit(txn)
    assert db.metrics()["txns_active"] == 0


def test_transform_queue_depth_is_live():
    db, info = _make_db(cold_threshold_epochs=1)
    with db.transaction() as txn:
        for i in range(info.table.layout.num_slots * 2):
            info.table.insert(txn, {0: i, 1: "x"})
    # Advance epochs without touching the blocks so the observer queues them.
    for _ in range(3):
        db.gc.run()
    depth = db.metrics()["transform_queue_depth"]
    assert depth == len(db.access_observer.queue)
    assert depth >= 1
    db.transformer.process_queue()
    assert db.metrics()["transform_queue_depth"] == 0


def test_checkpoint_resets_wal_bytes():
    db, info = _make_db()
    with db.transaction() as txn:
        info.table.insert(txn, {0: 1, 1: "a"})
    assert db.metrics()["wal_bytes_written"] > 0
    db.checkpoint()
    assert db.metrics()["wal_bytes_written"] == 0
    assert db.metrics()["wal_bytes_written"] == db.log_manager.bytes_written


def test_logging_disabled_reports_zero_wal():
    db = Database(logging_enabled=False)
    info = db.create_table("t", [ColumnSpec("id", INT64)])
    with db.transaction() as txn:
        info.table.insert(txn, {0: 1})
    m = db.metrics()
    assert m["wal_bytes_written"] == 0
    assert m["wal_flushes"] == 0


def test_metrics_backed_by_per_db_registry():
    a, info_a = _make_db()
    b, _ = _make_db()
    with a.transaction() as txn:
        info_a.table.insert(txn, {0: 1, 1: "a"})
    assert a.obs.counter("txn.commit_total").value >= 1
    assert b.obs.counter("txn.commit_total").value == 0
