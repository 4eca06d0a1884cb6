"""Tests for the Arrow structural validator — including over live exports."""

import numpy as np
import pytest

from repro import ColumnSpec, Database, INT64, UTF8
from repro.arrowfmt.array import DictionaryArray, FixedSizeArray
from repro.arrowfmt.buffer import Buffer
from repro.arrowfmt.builder import FixedSizeBuilder, VarBinaryBuilder
from repro.arrowfmt.datatypes import (
    INT32,
    DictionaryType,
    Field,
    INT64 as AF_INT64,
    Schema,
    UTF8 as AF_UTF8,
)
from repro.arrowfmt.table import RecordBatch
from repro.arrowfmt.validate import validate_array, validate_batch
from repro.errors import ArrowFormatError


def ints(values):
    return FixedSizeBuilder(AF_INT64).extend(values).finish()


def strs(values):
    return VarBinaryBuilder(AF_UTF8).extend(values).finish()


def dictionary_array(words, codes):
    return DictionaryArray(
        DictionaryType(INT32, AF_UTF8),
        FixedSizeBuilder(INT32).extend(codes).finish(),
        strs(words),
    )


class TestValidateArray:
    def test_good_arrays_pass(self):
        validate_array(ints([1, None, 3]))
        validate_array(strs(["a", None, "ccc"]))
        validate_array(dictionary_array(["x", "y"], [0, 1, None, 0]))

    def test_corrupt_offsets_detected(self):
        array = strs(["ab", "cd"])
        array.offsets_numpy()[1] = 100  # beyond values buffer
        with pytest.raises(ArrowFormatError):
            validate_array(array)

    def test_non_monotone_offsets_detected(self):
        array = strs(["ab", "cd"])
        array.offsets_numpy()[1] = 4
        array.offsets_numpy()[2] = 2
        with pytest.raises(ArrowFormatError):
            validate_array(array)

    def test_out_of_range_dictionary_code_detected(self):
        array = dictionary_array(["x", "y"], [0, 1])
        array.codes.to_numpy()[0] = 99
        with pytest.raises(ArrowFormatError):
            validate_array(array)

    def test_short_values_buffer_detected(self):
        bad = FixedSizeArray.__new__(FixedSizeArray)
        bad.dtype = AF_INT64
        bad.length = 10
        bad.values = Buffer.allocate(8)
        bad.validity = None
        with pytest.raises(ArrowFormatError):
            validate_array(bad)


class TestValidateBatchAndTable:
    def test_good_batch(self):
        schema = Schema([Field("x", AF_INT64)])
        validate_batch(RecordBatch(schema, [ints([1])]))

    def test_exported_blocks_are_valid_arrow(self):
        # The real point: everything the engine exports must validate.
        db = Database(logging_enabled=False, cold_threshold_epochs=1)
        info = db.create_table(
            "t", [ColumnSpec("id", INT64), ColumnSpec("s", UTF8)],
            block_size=1 << 13, watch_cold=True,
        )
        with db.transaction() as txn:
            for i in range(900):
                value = None if i % 11 == 0 else f"value-{i}-long-enough-to-spill"
                info.table.insert(txn, {0: i, 1: value})
        db.freeze_table("t")
        from repro.export.flight import client_receive, export_stream

        table = client_receive(export_stream(db.txn_manager, info.table).payload)
        assert table.num_rows == 900
        for batch in table.batches:
            validate_batch(batch)

    def test_dictionary_export_valid(self):
        db = Database(logging_enabled=False, cold_threshold_epochs=1,
                      cold_format="dictionary")
        info = db.create_table(
            "t", [ColumnSpec("id", INT64), ColumnSpec("s", UTF8)],
            block_size=1 << 13, watch_cold=True,
        )
        with db.transaction() as txn:
            for i in range(700):
                info.table.insert(txn, {0: i, 1: f"repeated-{i % 4}"})
        db.freeze_table("t")
        from repro.transform.arrow_view import block_to_record_batch
        from repro.storage.constants import BlockState

        for block in info.table.blocks:
            if block.state is BlockState.FROZEN:
                validate_batch(block_to_record_batch(block))

    def test_in_place_views_of_frozen_blocks_validate(self):
        db = Database(logging_enabled=False, cold_threshold_epochs=1)
        info = db.create_table(
            "t", [ColumnSpec("id", INT64), ColumnSpec("s", UTF8)],
            block_size=1 << 13, watch_cold=True,
        )
        with db.transaction() as txn:
            for i in range(800):
                info.table.insert(txn, {0: i, 1: "v" * (i % 30)})
        db.freeze_table("t")
        from repro.storage.constants import BlockState
        from repro.transform.arrow_view import block_to_record_batch

        frozen = [b for b in info.table.blocks if b.state is BlockState.FROZEN]
        assert frozen
        for block in frozen:
            validate_batch(block_to_record_batch(block))
