"""Tests for the random-access Arrow file format."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arrowfmt.builder import array_from_pylist
from repro.arrowfmt.datatypes import Field, INT64, Schema, UTF8
from repro.arrowfmt.ipc import (
    FILE_MAGIC,
    file_batch_count,
    read_file,
    read_file_batch,
    write_file,
)
from repro.arrowfmt.table import RecordBatch, Table
from repro.errors import ArrowFormatError, ReproError


def make_table(batch_sizes):
    schema = Schema([Field("x", INT64), Field("s", UTF8)])
    batches = []
    base = 0
    for size in batch_sizes:
        batches.append(
            RecordBatch(
                schema,
                [
                    array_from_pylist(list(range(base, base + size)), INT64),
                    array_from_pylist([f"v{base + i}" for i in range(size)], UTF8),
                ],
            )
        )
        base += size
    return Table(schema, batches)


class TestFileFormat:
    def test_roundtrip(self):
        table = make_table([3, 5, 2])
        back = read_file(write_file(table))
        assert back.to_pydict() == table.to_pydict()
        assert len(back.batches) == 3

    def test_magic_framing(self):
        raw = write_file(make_table([2]))
        assert raw.startswith(FILE_MAGIC)
        assert raw.endswith(FILE_MAGIC)

    def test_random_access_single_batch(self):
        table = make_table([4, 4, 4])
        raw = write_file(table)
        middle = read_file_batch(raw, 1)
        assert middle.column("x").to_pylist() == [4, 5, 6, 7]

    def test_batch_count(self):
        raw = write_file(make_table([1, 1, 1, 1]))
        assert file_batch_count(raw) == 4

    def test_empty_table(self):
        raw = write_file(make_table([]))
        assert file_batch_count(raw) == 0
        assert read_file(raw).num_rows == 0

    def test_index_out_of_range(self):
        raw = write_file(make_table([2]))
        with pytest.raises(ArrowFormatError):
            read_file_batch(raw, 1)
        with pytest.raises(ArrowFormatError):
            read_file_batch(raw, -1)

    def test_bad_magic_rejected(self):
        with pytest.raises(ArrowFormatError):
            read_file(b"NOTAFILE" + b"\x00" * 64)

    def test_missing_trailer_rejected(self):
        raw = write_file(make_table([2, 3]))
        for cut in range(len(raw)):
            with pytest.raises(ArrowFormatError):
                read_file(raw[:cut])


@settings(max_examples=60, deadline=None)
@given(st.binary(max_size=200))
def test_file_reader_never_crashes_on_garbage(raw):
    try:
        read_file(raw)
    except ReproError:
        pass


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(1, 8), max_size=5), st.integers(0, 10**6), st.integers(0, 255))
def test_file_reader_survives_corruption(sizes, position, value):
    raw = write_file(make_table(sizes))
    position %= len(raw)
    mutated = raw[:position] + bytes([value]) + raw[position + 1 :]
    try:
        read_file(mutated).to_pydict()
    except (ReproError, ValueError, UnicodeDecodeError):
        pass
