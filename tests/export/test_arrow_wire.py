"""Tests for the Arrow-as-wire-protocol export path."""

import numpy as np

from repro import ColumnSpec, Database, INT64, UTF8
from repro.arrowfmt import ipc
from repro.export import TableExporter
from repro.export.arrow_wire import client_receive, export_arrow_wire
from repro.export.flight import export_stream
from repro.storage.constants import BlockState


def build(rows=400, freeze=True):
    db = Database(logging_enabled=False, cold_threshold_epochs=1)
    info = db.create_table(
        "t",
        [ColumnSpec("id", INT64), ColumnSpec("s", UTF8)],
        block_size=1 << 14,
        watch_cold=freeze,
    )
    with db.transaction() as txn:
        for i in range(rows):
            value = None if i % 13 == 0 else f"value-{i}-long-enough-to-spill"
            info.table.insert(txn, {0: i, 1: value})
    if freeze:
        db.freeze_table("t")
    return db, info


class TestArrowWire:
    def test_roundtrip(self):
        db, info = build()
        payload = export_arrow_wire(db.txn_manager, info.table)
        table = client_receive(payload)
        assert table.num_rows == 400
        assert table.column_values("id") == sorted(table.column_values("id"))

    def test_nulls_preserved(self):
        db, info = build(rows=30)
        table = client_receive(export_arrow_wire(db.txn_manager, info.table))
        assert table.column_values("s")[0] is None

    def test_insensitive_to_block_state(self):
        # By-value serialization happens whether blocks are frozen or hot.
        frozen_db, frozen_info = build()
        hot_db, hot_info = build(freeze=False)
        frozen_payload = export_arrow_wire(frozen_db.txn_manager, frozen_info.table)
        hot_payload = export_arrow_wire(hot_db.txn_manager, hot_info.table)
        assert (
            client_receive(frozen_payload).to_pydict()
            == client_receive(hot_payload).to_pydict()
        )

    def test_exporter_integration(self):
        db, info = build(rows=800)
        exporter = TableExporter(db.txn_manager, info.table)
        result = exporter.export("arrow-wire")
        assert result.rows == 800
        assert result.method == "arrow-wire"

    def test_paper_claim_native_storage_beats_wire_conversion(self, monkeypatch):
        # Section 6.3's closing point, as the structure behind it: the wire
        # path encodes fresh buffers built value by value, while Arrow-native
        # storage encodes every frozen block's own memory.  (Timings are the
        # benchmarks' job.)
        db, info = build(rows=4000)
        encoded = []
        encode = ipc.batch_parts
        monkeypatch.setattr(
            ipc, "batch_parts", lambda batch: encoded.append(batch) or encode(batch)
        )

        def aliases_a_block(batch):
            ids = batch.column("id").to_numpy()
            return any(np.shares_memory(ids, b.buffer.data) for b in info.table.blocks)

        wire_payload = export_arrow_wire(db.txn_manager, info.table)
        wire, encoded[:] = list(encoded), []
        native_payload = export_stream(db.txn_manager, info.table).payload
        frozen = [b for b in info.table.blocks if b.state is BlockState.FROZEN]
        assert frozen
        assert not any(aliases_a_block(batch) for batch in wire)
        assert sum(aliases_a_block(batch) for batch in encoded) == len(frozen)
        assert sorted(client_receive(wire_payload).column_values("id")) == sorted(
            client_receive(native_payload).column_values("id")
        )
