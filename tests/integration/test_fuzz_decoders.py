"""Fuzz tests: every binary decoder must fail cleanly, never crash.

Arbitrary bytes and mutated valid streams fed to the IPC reader, the log
decoder, the checkpoint loader, and the wire-protocol parsers must either
parse or raise the library's own error types — no segfault-equivalents
(IndexError, struct.error, UnicodeDecodeError...) may escape.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ColumnSpec, Database, INT64, UTF8
from repro.arrowfmt import ipc
from repro.arrowfmt.builder import FixedSizeBuilder, VarBinaryBuilder
from repro.arrowfmt.datatypes import UINT64, Field, Schema
from repro.arrowfmt.table import RecordBatch, Table
from repro.errors import ReproError
from repro.export import postgres_wire, vectorized
from repro.wal.checkpoint import load_checkpoint
from repro.wal.records import decode_stream


def sample_ipc_stream() -> bytes:
    schema = Schema([Field("a", INT64), Field("s", UTF8)])
    batch = RecordBatch(
        schema,
        [
            FixedSizeBuilder(INT64).extend([1, 2, None]).finish(),
            VarBinaryBuilder(UTF8).extend(["x", None, "zz"]).finish(),
        ],
    )
    return ipc.write_table(Table(schema, [batch]))


def sample_log() -> bytes:
    """One transaction holding signed and unsigned 64-bit ints at their
    extremes, strings and a NULL."""
    db = Database()
    info = db.create_table(
        "t", [ColumnSpec("a", INT64), ColumnSpec("s", UTF8), ColumnSpec("u", UINT64)]
    )
    with db.transaction() as txn:
        info.table.insert(txn, {0: -(2**63), 1: "hello", 2: 2**64 - 1})
        info.table.insert(txn, {0: 1, 1: None, 2: 2**63 - 1})
    db.quiesce()
    return db.log_contents()


def mutate(raw: bytes, position: int, value: int) -> bytes:
    position %= max(len(raw), 1)
    return raw[:position] + bytes([value]) + raw[position + 1 :]


@settings(max_examples=80, deadline=None)
@given(st.binary(max_size=200))
def test_ipc_reader_never_crashes_on_garbage(raw):
    try:
        ipc.read_table(raw)
    except ReproError:
        pass


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**6), st.integers(0, 255))
def test_ipc_reader_survives_single_byte_corruption(position, value):
    raw = mutate(sample_ipc_stream(), position, value)
    try:
        table = ipc.read_table(raw)
        table.to_pydict()  # decoding what parsed must also be safe
    except (ReproError, ValueError, UnicodeDecodeError):
        # A flipped byte inside a UTF-8 value may surface at decode time;
        # anything else must be the library's own error.
        pass


@settings(max_examples=80, deadline=None)
@given(st.binary(max_size=200))
def test_log_decoder_never_crashes_on_garbage(raw):
    try:
        decode_stream(raw)
    except ReproError:
        pass


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.integers(0, 255))
def test_log_decoder_survives_single_byte_corruption(position, value):
    raw = mutate(sample_log(), position, value)
    try:
        decode_stream(raw)
    except ReproError:
        pass


@settings(max_examples=60, deadline=None)
@given(st.binary(max_size=200))
def test_checkpoint_loader_never_crashes_on_garbage(raw):
    db = Database()
    db.create_table("t", [ColumnSpec("a", INT64)])
    try:
        load_checkpoint(db, raw)
    except ReproError:
        pass


@settings(max_examples=80, deadline=None)
@given(st.binary(max_size=200))
def test_postgres_wire_decoder_never_crashes(raw):
    try:
        postgres_wire.decode_rows(raw)
    except ReproError:
        pass


@settings(max_examples=80, deadline=None)
@given(st.binary(max_size=200))
def test_vectorized_decoder_never_crashes(raw):
    try:
        vectorized.decode_table(raw)
    except (ReproError, Exception) as exc:
        # decode_table length-prefixes batches; any failure must be typed.
        assert isinstance(exc, ReproError) or isinstance(exc, (ValueError,)), (
            f"unexpected {type(exc).__name__}: {exc}"
        )
