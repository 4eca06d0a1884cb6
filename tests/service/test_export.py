"""The service's ``export`` operation is the Flight encoder behind a socket:
one source per shard, one schema header, ``rows`` taken from the stream."""

import pytest

from repro import ColumnSpec, Database, obs
from repro.arrowfmt.datatypes import INT64, UTF8
from repro.cluster import ShardedDatabase
from repro.export import flight, postgres_wire
from repro.service import ServiceClient
from repro.query.scan import TableScanner
from repro.service.server import ServerThread
from repro.storage.constants import BlockState
from repro.storage.data_table import rowwise_scan

COLUMNS = [ColumnSpec("key", INT64), ColumnSpec("field0", UTF8)]


def make_db(shards=1, rows=1000, shard_key="key"):
    """Small blocks, so every full block freezes and each shard's insertion
    head stays hot."""
    kwargs = {"logging_enabled": False, "cold_threshold_epochs": 1}
    if shards > 1:
        db = ShardedDatabase(n_shards=shards, **kwargs)
        db.create_table(
            "usertable", COLUMNS, block_size=1 << 13, watch_cold=True,
            shard_key=shard_key,
        )
        engines = db.shards
    else:
        db = Database(**kwargs)
        db.create_table("usertable", COLUMNS, block_size=1 << 13, watch_cold=True)
        engines = [db]
    table = db.catalog.table("usertable")
    with db.transaction() as txn:
        for key in range(rows):
            table.insert(txn, {0: key, 1: f"value-{key}-long-enough-to-spill"})
    for engine in engines:
        engine.freeze_table("usertable")
    return db


def export(db):
    server = ServerThread(db).start()
    try:
        with ServiceClient(port=server.port) as client:
            response = client.export("usertable")
            assert client.ping().ok  # no stray frame left on the connection
    finally:
        server.stop()
    assert response.ok, response.message
    return response


def local_tables(db):
    """Each shard's ``usertable``; a replicated table's first replica only."""
    if not isinstance(db, ShardedDatabase):
        return [(db, db.catalog.table("usertable"))]
    engines = db.shards
    if db.router.route("usertable").replicated:
        engines = engines[:1]
    return [(engine, engine.catalog.table("usertable")) for engine in engines]


def scanned_rows(db):
    """The expected rows, read by the per-slot reference, not the walk."""
    rows = []
    for engine, table in local_tables(db):
        with engine.transaction() as txn:
            rows += [(row.get(0), row.get(1)) for _, row in rowwise_scan(table, txn)]
    return sorted(rows)


def pins_held(db):
    return sum(
        block.reader_count for _, table in local_tables(db) for block in table.blocks
    )


def exported_rows(response):
    table = response.arrow_table()
    return sorted(zip(table.column_values("key"), table.column_values("field0")))


def test_one_shard_payload_is_the_flight_stream():
    db = make_db()
    table = db.catalog.table("usertable")
    states = table.block_states()
    assert states[BlockState.FROZEN] and states[BlockState.HOT]
    response = export(db)
    assert response.payload == flight.export_stream(db.txn_manager, table).payload
    assert response.meta["rows"] == 1000
    db.close()


@pytest.mark.parametrize("shards", [1, 2])
def test_exported_rows_are_the_scanned_rows(shards):
    db = make_db(shards=shards)
    response = export(db)
    expected = scanned_rows(db)
    assert len(expected) == response.meta["rows"] == 1000
    assert exported_rows(response) == expected
    db.close()


def test_replicated_table_is_exported_once():
    db = make_db(shards=2, rows=700, shard_key=None)
    assert db.router.route("usertable").replicated
    response = export(db)
    assert response.meta["rows"] == 700
    assert exported_rows(response) == scanned_rows(db)
    db.close()


def test_replicated_exports_rotate_over_the_replicas():
    db = make_db(shards=2, rows=10, shard_key=None)
    # The export passes its request id as the replica to read.
    picked = [
        [table for _, table in db.partitions("usertable", replica=request_id)]
        for request_id in range(1, 5)
    ]
    replicas = [[shard.catalog.table("usertable")] for shard in db.shards]
    assert picked == [replicas[1], replicas[0], replicas[1], replicas[0]]
    db.close()


@pytest.mark.parametrize("frozen", [False, True])
def test_export_is_journaled_with_its_snapshot(frozen):
    was = obs.is_enabled()
    obs.configure(enabled=True)
    try:
        db = make_db(rows=0)
        table = db.catalog.table("usertable")
        with db.transaction() as txn:
            for key in range(table.layout.num_slots * 2 + (0 if frozen else 1)):
                table.insert(txn, {0: key, 1: "v"})
        db.freeze_table("usertable")
        assert (table.block_states()[BlockState.HOT] == 0) == frozen
        db.recorder.clear()
        export(db)
        events = [
            event
            for event in db.recorder.events(kind="service.request")
            if event.attrs["op"] == "export"
        ]
    finally:
        obs.configure(enabled=was)
    assert len(events) == 1
    if frozen:  # nothing hot to read: no snapshot transaction
        assert events[0].txn_id is None
    else:
        assert events[0].txn_id is not None
    db.close()


@pytest.mark.parametrize("shards", [1, 2])
def test_empty_table_answers_zero_rows_without_a_payload(shards):
    db = make_db(shards=shards, rows=0)
    response = export(db)
    assert response.meta["rows"] == 0
    assert response.payload_kind is None and response.payload == b""
    db.close()


@pytest.mark.parametrize("shards", [1, 2])
def test_scan_drops_its_pins_before_encoding(shards, monkeypatch):
    """A ``limit`` scan closes its walk before the rows are encoded, and a
    scan that fails mid-iteration leaves no block pinned."""
    db = make_db(shards=shards)
    assert all(
        table.block_states()[BlockState.FROZEN] for _, table in local_tables(db)
    )
    encode_columns = postgres_wire.encode_columns
    pins_at_encode = []

    def encode_after_close(columns, num_rows=None):
        pins_at_encode.append(pins_held(db))
        return encode_columns(columns, num_rows)

    monkeypatch.setattr(postgres_wire, "encode_columns", encode_after_close)
    batch_values = TableScanner.batch_values
    converted = []

    def fail_on_the_second_batch(self, batch, limit=None):
        converted.append(batch)
        if len(converted) == 2:
            raise RuntimeError("batch conversion failed")
        return batch_values(self, batch, limit)

    server = ServerThread(db).start()
    try:
        with ServiceClient(port=server.port) as client:
            response = client.scan("usertable", limit=10)
            assert response.ok and response.meta["rows"] == 10
            assert pins_at_encode == [0]
            assert pins_held(db) == 0
            monkeypatch.setattr(TableScanner, "batch_values", fail_on_the_second_batch)
            response = client.scan("usertable")
            assert not response.ok
            assert len(converted) == 2
            assert pins_at_encode == [0]
            assert pins_held(db) == 0
    finally:
        server.stop()
    db.close()
