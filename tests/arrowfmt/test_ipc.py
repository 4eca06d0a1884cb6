"""Tests for the IPC stream serialization."""

import numpy as np
import pytest

from repro.arrowfmt.array import DictionaryArray
from repro.arrowfmt.builder import FixedSizeBuilder, VarBinaryBuilder
from repro.arrowfmt.datatypes import (
    BOOL,
    DictionaryType,
    Field,
    FLOAT64,
    INT32,
    INT64,
    Schema,
    UTF8,
)
from repro.arrowfmt.ipc import MAGIC, read_table, write_batch, write_table
from repro.arrowfmt.table import RecordBatch, Table
from repro.errors import ArrowFormatError


def fixed(values, dtype=INT64):
    return FixedSizeBuilder(dtype).extend(values).finish()


def strs(values):
    return VarBinaryBuilder(UTF8).extend(values).finish()


def roundtrip(table):
    return read_table(write_table(table))


def mixed_table():
    """Two batches over every array kind the stream carries, NULLs included."""
    schema = Schema(
        [
            Field("id", INT64, False),
            Field("name", UTF8),
            Field("active", BOOL),
        ]
    )
    batches = [
        RecordBatch(
            schema,
            [
                fixed(ids),
                strs(["a", None, "ccc"][: len(ids)]),
                fixed([True, None, False][: len(ids)], BOOL),
            ],
        )
        for ids in ([1, 2, 3], [4])
    ]
    return Table(schema, batches)


class TestIpcRoundtrip:
    def test_mixed_types(self):
        schema = Schema(
            [
                Field("id", INT64, False),
                Field("price", FLOAT64),
                Field("name", UTF8),
                Field("active", BOOL),
            ]
        )
        batch = RecordBatch(
            schema,
            [
                fixed([1, 2, 3]),
                fixed([1.5, None, 3.25], FLOAT64),
                strs(["a", "bb", None]),
                fixed([True, False, None], BOOL),
            ],
        )
        table = Table(schema, [batch])
        back = roundtrip(table)
        assert back.to_pydict() == table.to_pydict()
        assert back.schema == schema

    def test_multiple_batches(self):
        schema = Schema([Field("x", INT64)])
        batches = [
            RecordBatch(schema, [fixed(list(range(i, i + 4)))])
            for i in range(0, 12, 4)
        ]
        back = roundtrip(Table(schema, batches))
        assert len(back.batches) == 3
        assert back.column_values("x") == list(range(12))

    def test_empty_table(self):
        schema = Schema([Field("x", INT64)])
        back = roundtrip(Table(schema))
        assert back.num_rows == 0
        assert back.schema == schema

    def test_preserves_metadata(self):
        schema = Schema([Field("x", INT64)], metadata={"origin": "block-7"})
        back = roundtrip(Table(schema))
        assert dict(back.schema.metadata) == {"origin": "block-7"}


class TestZeroCopyRead:
    def received_buffers(self, table):
        for batch in table.batches:
            for column in batch.columns:
                yield from (b for b in column.buffers() if b is not None)

    def test_buffers_are_aligned_read_only_views_of_the_payload(self):
        raw = write_table(mixed_table())
        payload = np.frombuffer(raw, dtype=np.uint8)
        back = read_table(raw)
        assert back.to_pydict() == mixed_table().to_pydict()
        buffers = list(self.received_buffers(back))
        assert buffers
        for buffer in buffers:
            assert buffer.data.ctypes.data % 8 == 0
            assert np.shares_memory(buffer.data, payload)
            assert not buffer.data.flags.writeable

    def test_misaligned_payload_is_realigned(self):
        raw = write_table(mixed_table())
        shifted = memoryview(b"\x00" + raw)[1:]
        back = read_table(shifted)
        assert back.to_pydict() == mixed_table().to_pydict()
        for buffer in self.received_buffers(back):
            assert buffer.data.ctypes.data % 8 == 0


class TestIpcErrors:
    def test_bad_magic(self):
        with pytest.raises(ArrowFormatError):
            read_table(b"NOTMAGIC" + b"\x00" * 32)

    def test_truncated_stream(self):
        raw = write_table(mixed_table())
        for cut in range(len(raw)):
            with pytest.raises(ArrowFormatError):
                read_table(raw[:cut])

    def test_magic_prefix_present(self):
        schema = Schema([Field("x", INT64)])
        raw = write_table(Table(schema))
        assert raw.startswith(MAGIC)

    def test_garbage_after_header(self):
        schema = Schema([Field("x", INT64)])
        raw = write_table(Table(schema))
        # Replace the end marker with junk.
        corrupted = raw[:-4] + b"JUNK"
        with pytest.raises(ArrowFormatError):
            read_table(corrupted)

    def test_dictionary_column_is_rejected(self):
        # Exports decode dictionary-frozen columns before they are encoded;
        # the stream itself has no dictionary form.
        schema = Schema([Field("city", DictionaryType(INT32, UTF8))])
        codes = DictionaryArray(
            DictionaryType(INT32, UTF8), fixed([0, 1, None], INT32), strs(["nyc", "sf"])
        )
        with pytest.raises(ArrowFormatError, match="cannot serialize"):
            write_batch(RecordBatch(schema, [codes]))
        with pytest.raises(ArrowFormatError, match="no IPC form"):
            write_table(Table(schema, [RecordBatch(schema, [codes])]))
