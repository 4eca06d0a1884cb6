"""Tests for the export protocols and the unified exporter."""

import numpy as np
import pytest

from repro import Database, ColumnSpec, FLOAT64, INT64, UTF8
from repro.arrowfmt import ipc
from repro.arrowfmt.array import DictionaryArray
from repro.arrowfmt.builder import VarBinaryBuilder
from repro.arrowfmt.table import RecordBatch
from repro.export import NetworkProfile, SimulatedNetwork, TableExporter
from repro.export import postgres_wire, vectorized
from repro.export.flight import (
    _decode_dictionary_batch,
    client_receive,
    encode_blocks,
    export_stream,
)
from repro.export.rdma import CACHE_BYPASS_PENALTY, export_rdma
from repro.errors import SerializationError
from repro.storage.constants import BlockState
from repro.storage.data_table import rowwise_scan
from repro.storage.tuple_slot import TupleSlot
from repro.transform import arrow_view
from repro.transform.arrow_view import BlockWalk, frozen_batch, table_schema


def build_db(rows=500, freeze=True, block_size=1 << 14, full_blocks=None, **db_kwargs):
    """``full_blocks`` overrides ``rows`` with exactly that many full
    blocks, so that (frozen) no block is left hot."""
    db = Database(cold_threshold_epochs=1, **db_kwargs)
    info = db.create_table(
        "t",
        [ColumnSpec("id", INT64), ColumnSpec("name", UTF8), ColumnSpec("x", FLOAT64)],
        block_size=block_size,
        watch_cold=freeze,
    )
    if full_blocks is not None:
        rows = info.table.layout.num_slots * full_blocks
    with db.transaction() as txn:
        for i in range(rows):
            name = None if i % 17 == 0 else f"name-{i}-padded-for-out-of-line"
            info.table.insert(txn, {0: i, 1: name, 2: i / 4})
    if freeze:
        db.freeze_table("t")
    return db, info


class TestNetworkModel:
    def test_transfer_time_formula(self):
        net = SimulatedNetwork(NetworkProfile("test", 1e6, 0.001))
        assert net.transmit(1_000_000, 2) == pytest.approx(1.0 + 0.002)
        assert net.bytes_sent == 1_000_000
        assert net.messages_sent == 2

    def test_negative_rejected(self):
        net = SimulatedNetwork()
        with pytest.raises(SerializationError):
            net.transmit(-1)

    def test_rdma_profile_lower_latency(self):
        assert (
            NetworkProfile.RDMA_10_GBE.latency_sec_per_message
            < NetworkProfile.TEN_GBE.latency_sec_per_message
        )


class TestPostgresWire:
    def test_roundtrip(self):
        rows = [(1, "hello", 2.5), (2, None, -1.0)]
        raw, count = postgres_wire.encode_rows(rows)
        assert count == 2
        decoded = postgres_wire.decode_rows(raw)
        assert decoded[0] == ("1", "hello", "2.5")
        assert decoded[1][1] is None

    def test_corrupt_stream_detected(self):
        with pytest.raises(SerializationError):
            postgres_wire.decode_rows(b"Xgarbage")

    def test_one_message_per_row(self):
        raw, count = postgres_wire.encode_rows([(i,) for i in range(10)])
        assert count == 10


class TestVectorized:
    def test_roundtrip_mixed_types(self):
        columns = [
            [1, 2, None],
            ["a", None, "ccc"],
            [1.5, 2.5, 3.5],
        ]
        raw, batches = vectorized.encode_table(columns, batch_rows=2)
        assert batches == 2
        decoded = vectorized.decode_table(raw)
        assert decoded == columns

    def test_empty_column_list_rejected(self):
        with pytest.raises(SerializationError):
            vectorized.encode_table([])

    def test_ragged_batch_rejected(self):
        with pytest.raises(SerializationError):
            vectorized.encode_batch([[1, 2], [1]])

    def test_batching_counts(self):
        columns = [[i for i in range(100)]]
        _, batches = vectorized.encode_table(columns, batch_rows=30)
        assert batches == 4


class TestFlight:
    def test_zero_copy_roundtrip_frozen(self):
        db, info = build_db(rows=800)
        stream = export_stream(db.txn_manager, info.table)
        assert stream.frozen_blocks >= 1
        table = client_receive(stream.payload)
        reader = db.begin()
        expected = sorted(r.get(0) for _, r in rowwise_scan(info.table, reader))
        assert sorted(table.column_values("id")) == expected

    def test_hot_blocks_materialized(self):
        db, info = build_db(rows=300, freeze=False)
        stream = export_stream(db.txn_manager, info.table)
        assert stream.frozen_blocks == 0
        assert stream.materialized_blocks >= 1
        table = client_receive(stream.payload)
        assert table.num_rows == 300

    def test_reheated_block_in_a_frozen_stream_and_a_block_slice(self):
        db, info = build_db(full_blocks=3)
        blocks = list(info.table.blocks)
        blocks[1].touch_hot()
        reader = db.begin()
        ids = {
            block.block_id: sorted(
                row.get(0) for slot, row in rowwise_scan(info.table, reader)
                if slot.block_id == block.block_id
            )
            for block in blocks
        }
        db.commit(reader)
        whole = export_stream(db.txn_manager, info.table)
        assert (whole.frozen_blocks, whole.materialized_blocks) == (2, 1)
        received = client_receive(whole.payload).column_values("id")
        assert sorted(received) == sorted(sum(ids.values(), []))
        part = encode_blocks(info.table.layout, [(db.txn_manager, lambda: blocks[1:])])
        assert (part.frozen_blocks, part.materialized_blocks) == (1, 1)
        received = client_receive(part.payload).column_values("id")
        assert sorted(received) == sorted(ids[blocks[1].block_id] + ids[blocks[2].block_id])

    def test_nulls_preserved(self):
        db, info = build_db(rows=100)
        table = client_receive(export_stream(db.txn_manager, info.table).payload)
        names = table.column_values("name")
        assert names[0] is None  # i % 17 == 0

    def test_uncommitted_rows_not_exported(self):
        db, info = build_db(rows=50, freeze=False)
        pending = db.begin()
        info.table.insert(pending, {0: 999, 1: "pending", 2: 0.0})
        table = client_receive(export_stream(db.txn_manager, info.table).payload)
        assert 999 not in table.column_values("id")

    def test_dictionary_decode_matches_the_builder_byte_for_byte(self):
        # Reference: the per-value decode the numpy take replaced.
        db, info = build_db(full_blocks=2, cold_format="dictionary")
        schema = table_schema(info.table.layout)
        frozen = [b for b in info.table.blocks if b.state is BlockState.FROZEN]
        assert frozen
        for block in frozen:
            assert block.begin_frozen_read()
            try:
                batch = frozen_batch(block)
            finally:
                block.end_frozen_read()
            names = batch.column("name")
            assert isinstance(names, DictionaryArray) and names.null_count > 0
            reference = RecordBatch(
                schema,
                [
                    VarBinaryBuilder(field.dtype).extend(column.to_pylist()).finish()
                    if isinstance(column, DictionaryArray)
                    else column
                    for field, column in zip(schema, batch.columns)
                ],
            )
            decoded = _decode_dictionary_batch(batch, schema)
            assert ipc.write_batch(decoded) == ipc.write_batch(reference)
        received = client_receive(export_stream(db.txn_manager, info.table).payload)
        reader = db.begin()
        expected = sorted((r.get(0), r.get(1)) for _, r in rowwise_scan(info.table, reader))
        assert sorted(zip(*(received.column_values(c) for c in ("id", "name")))) == expected


class TestOneSnapshotPerExport:
    """Every hot block of one export is read under the same snapshot: a row
    moved between blocks mid-export is seen exactly once, where it was."""

    def move_row_after_first_hot_block(self, monkeypatch, db, info):
        table = info.table
        first, last = table.blocks[0], table.blocks[-1]
        with db.transaction() as txn:  # open a gap in the first block
            table.delete(txn, TupleSlot(first.block_id, 0))
        db.quiesce()
        source = TupleSlot(last.block_id, 0)
        gap = TupleSlot(first.block_id, 0)
        moved = []
        materialize = arrow_view.hot_batch

        def hot_batch_then_move(block, txn):
            batch = materialize(block, txn)
            if not moved:
                with db.transaction() as mover:
                    row = table.select(mover, source).to_dict()
                    table.delete(mover, source)
                    table.insert_into(mover, gap, row)
                moved.append(block.block_id)
            return batch

        monkeypatch.setattr(arrow_view, "hot_batch", hot_batch_then_move)
        return moved

    def rows_and_sum(self, db, info):
        reader = db.begin()
        ids = [row.get(0) for _, row in rowwise_scan(info.table, reader)]
        db.txn_manager.commit(reader)
        return len(ids), sum(ids)

    def test_export_stream(self, monkeypatch):
        db, info = build_db(full_blocks=3, freeze=False)
        moved = self.move_row_after_first_hot_block(monkeypatch, db, info)
        expected = self.rows_and_sum(db, info)
        received = client_receive(export_stream(db.txn_manager, info.table).payload)
        assert moved == [info.table.blocks[0].block_id]
        ids = received.column_values("id")
        assert (len(ids), sum(ids)) == expected
        assert self.rows_and_sum(db, info) == expected  # the move committed

    def test_stream_blocks(self, monkeypatch):
        db, info = build_db(full_blocks=3, freeze=False)
        moved = self.move_row_after_first_hot_block(monkeypatch, db, info)
        expected = self.rows_and_sum(db, info)
        with BlockWalk(db.txn_manager, lambda: info.table.blocks) as walk:
            ids = [
                i for block, frozen in walk
                for i in walk.batch(block, frozen).column("id").to_pylist()
            ]
        assert moved
        assert (len(ids), sum(ids)) == expected


class TestRdma:
    def test_frozen_blocks_are_pure_bandwidth(self):
        db, info = build_db(rows=800)
        # A fully frozen prefix: all blocks but the insertion head.
        transfer = export_rdma(db.txn_manager, info.table)
        assert transfer.frozen_blocks >= 1
        assert transfer.frozen_bytes > 0

    def test_hot_blocks_penalized(self):
        db, info = build_db(rows=300, freeze=False)
        transfer = export_rdma(db.txn_manager, info.table)
        assert transfer.materialized_blocks >= 1
        assert transfer.effective_bytes == pytest.approx(
            transfer.frozen_bytes + transfer.materialized_bytes * CACHE_BYPASS_PENALTY
        )


class TestTableExporter:
    def test_all_methods_agree_on_rows(self):
        db, info = build_db(rows=400)
        exporter = TableExporter(db.txn_manager, info.table)
        pg = exporter.export("postgres")
        vec = exporter.export("vectorized")
        fl = exporter.export("flight")
        assert pg.rows == vec.rows == fl.rows == 400

    def test_paper_ordering_when_frozen(self):
        # Figure 15 at 100 % frozen, as the structure behind the ordering:
        # Flight and RDMA do no per-value work on frozen blocks — they ship
        # the blocks' own memory.  The timed ordering is measured by
        # bench_fig15_export.py and the e2e benchmark, not by a unit test.
        db, info = build_db(full_blocks=3)
        blocks = info.table.blocks
        assert all(b.state is BlockState.FROZEN for b in blocks)

        stream = export_stream(db.txn_manager, info.table)
        assert stream.frozen_blocks == stream.batches == len(blocks)
        assert stream.materialized_blocks == 0
        transfer = export_rdma(db.txn_manager, info.table)
        assert transfer.frozen_blocks == len(blocks)
        assert transfer.materialized_blocks == 0
        assert TableExporter(db.txn_manager, info.table).export("rdma").client_seconds == 0

        for block in blocks:
            assert block.begin_frozen_read()
            try:
                batch = frozen_batch(block)
                assert frozen_batch(block) is batch  # built once, at freeze
                assert np.shares_memory(
                    batch.column("id").to_numpy(), block.column_view(0)
                )
                offsets, values = block.gathered[1]
                names = batch.column("name")
                assert np.shares_memory(names.offsets.data, offsets)
                assert np.shares_memory(names.values.data, values)
            finally:
                block.end_frozen_read()

        payload = np.frombuffer(stream.payload, dtype=np.uint8)
        received = client_receive(stream.payload)
        assert received.num_rows == info.table.live_tuple_count()
        for batch in received.batches:
            for column in batch.columns:
                for buffer in column.buffers():
                    if buffer is not None:
                        assert np.shares_memory(buffer.data, payload)

    def test_unknown_method_rejected(self):
        db, info = build_db(rows=10, freeze=False)
        exporter = TableExporter(db.txn_manager, info.table)
        with pytest.raises(SerializationError):
            exporter.export("carrier-pigeon")

    def test_result_accounting(self):
        db, info = build_db(rows=100)
        result = TableExporter(db.txn_manager, info.table).export("vectorized")
        assert result.total_seconds == pytest.approx(
            result.serialization_seconds + result.wire_seconds + result.client_seconds
        )
        assert result.payload_bytes > 0
        assert result.throughput_mb_per_sec > 0
