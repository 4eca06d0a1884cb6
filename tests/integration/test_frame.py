"""Tests for the DataFrame adapter — including end-to-end from the engine."""

import numpy as np
import pytest

from repro import ColumnSpec, Database, FLOAT64, INT64, UTF8
from repro.export.flight import client_receive, export_stream
from repro.frame import DataFrame, FrameError


class TestConstruction:
    def test_numeric_columns_become_numpy(self):
        frame = DataFrame({"x": [1, 2, 3], "s": ["a", "b", None]})
        assert isinstance(frame["x"], np.ndarray)
        assert isinstance(frame["s"], list)
        assert len(frame) == 3

    def test_ragged_rejected(self):
        with pytest.raises(FrameError):
            DataFrame({"a": [1], "b": [1, 2]})

    def test_missing_column(self):
        with pytest.raises(FrameError):
            DataFrame({"a": [1]})["b"]

    def test_empty_frame(self):
        frame = DataFrame({})
        assert len(frame) == 0
        with pytest.raises(FrameError):
            frame["a"]


class TestEndToEnd:
    def test_engine_to_frame_pipeline(self):
        db = Database(logging_enabled=False, cold_threshold_epochs=1)
        info = db.create_table(
            "sales",
            [ColumnSpec("region", INT64), ColumnSpec("amount", FLOAT64),
             ColumnSpec("memo", UTF8)],
            block_size=1 << 16,
            watch_cold=True,
        )
        with db.transaction() as txn:
            for i in range(2000):
                info.table.insert(txn, {0: i % 4, 1: float(i), 2: f"memo-{i}"})
        db.freeze_table("sales")
        arrow = client_receive(export_stream(db.txn_manager, info.table).payload)
        frame = DataFrame.from_arrow(arrow)
        assert len(frame) == 2000
        # Numeric columns arrive zero-copy from the single frozen batch...
        if len(arrow.batches) == 1:
            assert np.shares_memory(
                frame["region"], arrow.batches[0].column("region").to_numpy()
            )
        assert sorted(frame["memo"]) == sorted(f"memo-{i}" for i in range(2000))
        top = frame["amount"][frame["region"] == 2]
        expected = [float(i) for i in range(2000) if i % 4 == 2]
        assert top.mean() == pytest.approx(sum(expected) / len(expected))

    def test_multi_batch_materializes(self):
        db = Database(logging_enabled=False, cold_threshold_epochs=1)
        info = db.create_table(
            "t", [ColumnSpec("x", INT64), ColumnSpec("s", UTF8)],
            block_size=1 << 13, watch_cold=True,
        )
        with db.transaction() as txn:
            for i in range(900):
                info.table.insert(txn, {0: i, 1: "v"})
        db.freeze_table("t")
        arrow = client_receive(export_stream(db.txn_manager, info.table).payload)
        assert len(arrow.batches) > 1
        frame = DataFrame.from_arrow(arrow)
        assert sorted(frame["x"].tolist()) == list(range(900))
