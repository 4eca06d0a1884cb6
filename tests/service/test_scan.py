"""The service's ``scan`` and ``read`` payloads are the postgres-wire encoding
of the rows the per-slot reference reads under the same snapshot."""

import pytest

from repro import ColumnSpec, Database
from repro.arrowfmt.datatypes import BOOL, FLOAT64, INT64, UTF8
from repro.cluster import ShardedDatabase
from repro.export import TableExporter, postgres_wire
from repro.query.scan import TableScanner
from repro.service import ServiceClient
from repro.service.server import ServerThread
from repro.storage.constants import BlockState
from repro.storage.data_table import rowwise_scan

COLUMNS = [
    ColumnSpec("key", INT64),
    ColumnSpec("name", UTF8),
    ColumnSpec("score", FLOAT64),
    ColumnSpec("flag", BOOL),
]
ROWS = 900


def values(key):
    """NULLs in every column but the key; long names spill out of line."""
    return {
        0: key,
        1: None if key % 11 == 0 else f"name-{key}" + "é" * (key % 5) * 4,
        2: None if key % 7 == 0 else key / 3 - 100,
        3: None if key % 13 == 0 else key % 3 == 0,
    }


def make_db(shards=1, shard_key="key"):
    """Full blocks freeze, each table's insertion head stays hot."""
    kwargs = {"logging_enabled": False, "cold_threshold_epochs": 1}
    if shards > 1:
        db = ShardedDatabase(n_shards=shards, **kwargs)
        db.create_table(
            "t", COLUMNS, block_size=1 << 13, watch_cold=True, shard_key=shard_key,
        )
        engines = db.shards
    else:
        db = Database(**kwargs)
        db.create_table("t", COLUMNS, block_size=1 << 13, watch_cold=True)
        engines = [db]
    db.create_index("t", "pk", ["key"])
    table = db.catalog.table("t")
    with db.transaction() as txn:
        for key in range(ROWS):
            table.insert(txn, values(key))
    for engine in engines:
        engine.freeze_table("t")
        states = engine.catalog.table("t").block_states()
        assert states[BlockState.FROZEN] and states[BlockState.HOT]
    return db


def column_ids(names):
    return list(range(len(COLUMNS))) if names is None else [
        [c.name for c in COLUMNS].index(name) for name in names
    ]


class Oracle:
    """Records, as each walk opens, ``rowwise_scan`` under the walk's own
    snapshot; ``on_first_walk`` runs once, after the snapshot is taken."""

    def __init__(self, monkeypatch, ids, on_first_walk=None):
        self.rows = []
        self.walks = 0
        batches = TableScanner.batches

        def recording(scanner):
            if self.walks == 0 and on_first_walk is not None:
                on_first_walk()
            self.walks += 1
            self.rows += [
                tuple(row.get(c) for c in ids)
                for _, row in rowwise_scan(scanner.table, scanner.txn, ids)
            ]
            yield from batches(scanner)

        monkeypatch.setattr(TableScanner, "batches", recording)


def serve(db):
    server = ServerThread(db).start()
    return server, ServiceClient(port=server.port)


def scan(client, columns=None, limit=None):
    response = client.scan("t", columns=columns, limit=limit)
    assert response.ok, response.message
    assert client.ping().ok  # no stray frame left on the connection
    return response


@pytest.mark.parametrize("columns", [None, ["flag", "key", "score"]])
@pytest.mark.parametrize("shards,shard_key", [(1, "key"), (2, "key"), (2, None)])
def test_scan_payload_is_the_encoded_reference_rows(shards, shard_key, columns, monkeypatch):
    db = make_db(shards, shard_key)
    oracle = Oracle(monkeypatch, column_ids(columns))
    server, client = serve(db)
    try:
        response = scan(client, columns)
    finally:
        client.close()
        server.stop()
    # A replicated table is read once, from one replica.
    assert oracle.walks == (1 if shards == 1 or shard_key is None else shards)
    assert len(oracle.rows) == response.meta["rows"] == ROWS
    assert response.payload == postgres_wire.encode_rows(oracle.rows)[0]
    db.close()


@pytest.mark.parametrize("shards", [1, 2])
def test_scan_under_concurrent_writes(shards, monkeypatch):
    """An uncommitted update and a row committed after the scan's snapshot
    are both invisible, on frozen and hot blocks alike."""
    db = make_db(shards)
    table = db.catalog.table("t")
    index = db.catalog.index("t", "pk")
    writer = db.begin()
    for key in (5, ROWS - 1):  # one row in a frozen block, one in a hot one
        (slot, _), = index.lookup(writer, (key,))
        assert table.update(writer, slot, {1: "uncommitted", 3: None})

    def commit_a_row():
        with db.transaction() as txn:
            table.insert(txn, values(ROWS))

    oracle = Oracle(monkeypatch, column_ids(None), on_first_walk=commit_a_row)
    server, client = serve(db)
    try:
        response = scan(client)
        after = scan(client)
    finally:
        client.close()
        server.stop()
    db.abort(writer)
    first = oracle.rows[: response.meta["rows"]]
    assert response.payload == postgres_wire.encode_rows(first)[0]
    assert all(row[1] != "uncommitted" for row in first)
    if shards == 1:
        assert response.meta["rows"] == ROWS
    assert after.meta["rows"] == ROWS + 1
    assert after.payload == postgres_wire.encode_rows(oracle.rows[len(first):])[0]
    db.close()


@pytest.mark.parametrize("shards", [1, 2])
def test_limit_inside_the_second_block(shards, monkeypatch):
    db = make_db(shards)
    first_table = db.shards[0].catalog.table("t") if shards > 1 else db.catalog.table("t")
    blocks = list(first_table.blocks)
    assert blocks[0].state is BlockState.FROZEN and blocks[1].insert_head > 3
    limit = blocks[0].insert_head + 3
    oracle = Oracle(monkeypatch, column_ids(["name", "key"]))
    server, client = serve(db)
    try:
        response = scan(client, ["name", "key"], limit=limit)
    finally:
        client.close()
        server.stop()
    assert oracle.walks == 1  # the first shard holds enough rows
    assert response.meta["rows"] == limit
    assert response.payload == postgres_wire.encode_rows(oracle.rows[:limit])[0]
    db.close()


@pytest.mark.parametrize("shards", [1, 2])
def test_limit_zero_answers_no_rows(shards, monkeypatch):
    db = make_db(shards)
    oracle = Oracle(monkeypatch, column_ids(None))
    server, client = serve(db)
    try:
        response = scan(client, limit=0)
    finally:
        client.close()
        server.stop()
    assert response.meta["rows"] == 0
    assert response.payload_kind is None and response.payload == b""
    assert oracle.walks == 0
    db.close()


@pytest.mark.parametrize("columns", [None, ["score", "flag"]])
@pytest.mark.parametrize("shards,shard_key", [(1, "key"), (2, "key"), (2, None)])
def test_read_payload_is_the_encoded_reference_row(shards, shard_key, columns):
    db = make_db(shards, shard_key)
    ids = column_ids(columns)
    keys = [0, 7, 13, 42, ROWS - 1]
    server, client = serve(db)
    try:
        responses = [client.read("t", "pk", (key,), columns) for key in keys]
        missing = client.read("t", "pk", (ROWS + 5,), columns)
    finally:
        client.close()
        server.stop()
    for key, response in zip(keys, responses):
        assert response.ok and response.meta["rows"] == 1
        expected = tuple(values(key)[c] for c in ids)
        assert response.payload == postgres_wire.encode_rows([expected])[0]
    assert missing.ok and missing.meta["rows"] == 0 and missing.payload == b""
    db.close()


def test_fig15_postgres_baseline_sends_the_scan_bytes(monkeypatch):
    """``TableExporter``'s PostgreSQL path and the service's ``scan`` share
    the batch conversion: BOOL travels as ``t``/``f`` on both."""
    db = make_db()
    sent = []
    decode_rows = postgres_wire.decode_rows

    def capture(raw):
        sent.append(raw)
        return decode_rows(raw)

    monkeypatch.setattr(postgres_wire, "decode_rows", capture)
    result = TableExporter(db.txn_manager, db.catalog.table("t")).export("postgres")
    server, client = serve(db)
    try:
        response = scan(client)
    finally:
        client.close()
        server.stop()
    assert result.rows == response.meta["rows"] == ROWS
    assert sent == [response.payload]
    flags = {row[3] for row in decode_rows(response.payload)}
    assert flags == {"t", "f", None}
    db.close()
