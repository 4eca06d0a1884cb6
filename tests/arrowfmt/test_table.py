"""Tests for record batches and tables."""

import pytest

from repro.arrowfmt.builder import FixedSizeBuilder, VarBinaryBuilder
from repro.arrowfmt.datatypes import Field, INT64, Schema, UTF8
from repro.arrowfmt.table import RecordBatch, Table
from repro.errors import ArrowFormatError


def ints(values):
    return FixedSizeBuilder(INT64).extend(values).finish()


def strs(values):
    return VarBinaryBuilder(UTF8).extend(values).finish()


def make_schema():
    return Schema([Field("id", INT64, False), Field("name", UTF8)])


def make_batch(ids, names):
    return RecordBatch(make_schema(), [ints(ids), strs(names)])


class TestRecordBatch:
    def test_basic_accessors(self):
        batch = make_batch([1, 2], ["a", "b"])
        assert batch.num_rows == 2
        assert batch.column("name").to_pylist() == ["a", "b"]
        assert batch.column("id")[1] == 2

    def test_unknown_column(self):
        with pytest.raises(ArrowFormatError):
            make_batch([1], ["x"]).column("nope")

    def test_to_pydict(self):
        batch = make_batch([1], ["x"])
        assert batch.to_pydict() == {"id": [1], "name": ["x"]}

    def test_column_count_mismatch(self):
        schema = make_schema()
        with pytest.raises(ArrowFormatError):
            RecordBatch(schema, [ints([1])])

    def test_column_length_mismatch(self):
        schema = make_schema()
        with pytest.raises(ArrowFormatError):
            RecordBatch(
                schema,
                [
                    ints([1, 2]),
                    strs(["a"]),
                ],
            )

    def test_column_type_mismatch(self):
        schema = make_schema()
        with pytest.raises(ArrowFormatError):
            RecordBatch(
                schema,
                [
                    strs(["not int"]),
                    strs(["a"]),
                ],
            )

    def test_non_nullable_rejects_nulls(self):
        with pytest.raises(ArrowFormatError):
            make_batch([1, None], ["a", "b"])

    def test_nbytes_positive(self):
        assert make_batch([1], ["abc"]).nbytes() > 0


class TestTable:
    def test_batch_schema_check(self):
        other_schema = Schema([Field("x", INT64)])
        bad = RecordBatch(other_schema, [ints([1])])
        with pytest.raises(ArrowFormatError):
            Table(make_schema(), [bad])

    def test_to_pydict_spans_batches(self):
        table = Table(
            make_schema(), [make_batch([1, 2], ["a", "b"]), make_batch([3], ["c"])]
        )
        assert table.num_rows == 3
        assert table.column_values("id") == [1, 2, 3]
        assert table.to_pydict() == {"id": [1, 2, 3], "name": ["a", "b", "c"]}

    def test_to_pydict(self):
        table = Table(make_schema(), [make_batch([1], [None])])
        assert table.to_pydict() == {"id": [1], "name": [None]}

    def test_empty_table(self):
        table = Table(make_schema())
        assert table.num_rows == 0
        assert table.to_pydict() == {"id": [], "name": []}
