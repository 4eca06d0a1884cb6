"""A binary IPC stream encoding for record batches and tables.

This is a simplified analogue of the Arrow IPC streaming format: a JSON
schema header followed by length-prefixed, 8-byte-aligned raw buffers.  The
crucial property it shares with real Arrow IPC is that **batch bodies are
the physical buffers themselves** — writing a frozen block to the stream is
a straight memory copy with no per-value serialization, which is what makes
the Flight export path in Section 5 fast.

Both directions are zero-copy up to the final byte string.  The writer
produces a list of *parts* — small header ``bytes`` plus ``memoryview``s of
the batches' buffers — that the caller joins once (the stand-in for a
vectored socket write).  The reader wraps the payload in one read-only
numpy view and hands out slices of it, so received arrays alias the payload
and keep it alive.

Layout (every offset below is a multiple of 8 from the payload start)::

    MAGIC(8)  header_len:i32  schema JSON, space-padded to 8
    per batch:  "BTCH"  4 zero bytes  num_rows:i64
                per buffer:  size:i64 (-1 = absent)  bytes  zero pad to 8
    "EOS\\0"

Fixed-width and varbinary columns are all it carries: Flight decodes
dictionary-frozen columns to plain varbinary before they reach the stream.
"""

from __future__ import annotations

import json
import struct

import numpy as np

from repro.arrowfmt.array import Array, FixedSizeArray, VarBinaryArray
from repro.arrowfmt.buffer import Bitmap, Buffer
from repro.arrowfmt.datatypes import FixedWidthType, Schema, VarBinaryType
from repro.arrowfmt.table import RecordBatch, Table
from repro.errors import ArrowFormatError

MAGIC = b"RARROW1\x00"
_BATCH_MARKER = b"BTCH"
END_MARKER = b"EOS\x00"
_ALIGN = 8
_PAD = bytes(_ALIGN)
_I32 = struct.Struct("<i")
_I64 = struct.Struct("<q")
#: marker, 4 padding bytes, row count: 16 bytes, so buffers stay aligned.
_BATCH_HEADER = struct.Struct("<4s4xq")
_ABSENT = _I64.pack(-1)

#: One piece of an encoded stream; ``b"".join(parts)`` is the stream.
Part = bytes | memoryview


# ---------------------------------------------------------------------- #
# writing                                                                 #
# ---------------------------------------------------------------------- #


def _buffer_parts(parts: list[Part], buffer: Buffer | None) -> None:
    if buffer is None:
        parts.append(_ABSENT)
        return
    size = buffer.size
    parts.append(_I64.pack(size))
    if size:
        parts.append(memoryview(buffer.data[:size]))
    pad = -size % _ALIGN
    if pad:
        parts.append(_PAD[:pad])


def _array_parts(parts: list[Part], array: Array) -> None:
    _buffer_parts(parts, array.validity.buffer if array.validity is not None else None)
    if isinstance(array, FixedSizeArray):
        _buffer_parts(parts, array.values)
    elif isinstance(array, VarBinaryArray):
        _buffer_parts(parts, array.offsets)
        _buffer_parts(parts, array.values)
    else:
        raise ArrowFormatError(f"cannot serialize array type {type(array).__name__}")


def batch_parts(batch: RecordBatch) -> list[Part]:
    """One record batch as stream parts; buffers are views, not copies."""
    parts: list[Part] = [_BATCH_HEADER.pack(_BATCH_MARKER, batch.num_rows)]
    for column in batch.columns:
        _array_parts(parts, column)
    return parts


def schema_header(schema: Schema) -> bytes:
    """``MAGIC``, the header length and the schema JSON, padded with JSON
    whitespace so the first batch starts 8-byte aligned."""
    header = json.dumps(schema.to_json()).encode("utf-8")
    header += b" " * (-(len(MAGIC) + _I32.size + len(header)) % _ALIGN)
    return MAGIC + _I32.pack(len(header)) + header


def write_batch(batch: RecordBatch) -> bytes:
    """One encoded record batch, ready to splice into a stream."""
    return b"".join(batch_parts(batch))


def write_table(table: Table) -> bytes:
    """Serialize a whole table (schema header + batches + end marker)."""
    parts: list[Part] = [schema_header(table.schema)]
    for batch in table.batches:
        parts += batch_parts(batch)
    parts.append(END_MARKER)
    return b"".join(parts)


# ---------------------------------------------------------------------- #
# reading                                                                 #
# ---------------------------------------------------------------------- #


class _Reader:
    """Bounds-checked cursor over one payload; buffers come back as
    read-only views of it."""

    __slots__ = ("raw", "data", "size", "pos")

    def __init__(self, raw: bytes | bytearray | memoryview) -> None:
        data = np.frombuffer(raw, dtype=np.uint8)
        if data.ctypes.data % _ALIGN:
            # Foreign memory at an odd address: one copy restores alignment.
            raw = data = data.copy()
        data.flags.writeable = False
        self.raw = raw
        self.data = data
        self.size = len(data)
        self.pos = 0

    def take(self, n: int) -> np.ndarray:
        start, end = self.pos, self.pos + n
        if n < 0 or end > self.size:
            raise ArrowFormatError("truncated IPC stream")
        self.pos = end
        return self.data[start:end]

    def unpack(self, fmt: struct.Struct) -> tuple:
        start, end = self.pos, self.pos + fmt.size
        if end > self.size:
            raise ArrowFormatError("truncated IPC stream")
        self.pos = end
        return fmt.unpack_from(self.raw, start)

    def schema(self) -> Schema:
        if self.take(len(MAGIC)).tobytes() != MAGIC:
            raise ArrowFormatError("bad magic: not a repro IPC stream")
        (header_len,) = self.unpack(_I32)
        if header_len < 0:
            raise ArrowFormatError("negative schema header length")
        try:
            return Schema.from_json(json.loads(self.take(header_len).tobytes()))
        except ArrowFormatError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise ArrowFormatError(f"corrupt schema header: {exc}") from exc

    def buffer(self) -> Buffer | None:
        (size,) = self.unpack(_I64)
        if size < 0:
            return None
        # The backing view includes the zero padding, as Buffer.allocate's does.
        return Buffer(self.take(size + -size % _ALIGN), size)

    def array(self, dtype, length: int) -> Array:
        validity_buf = self.buffer()
        validity = Bitmap(validity_buf, length) if validity_buf is not None else None
        if isinstance(dtype, FixedWidthType):
            values = self.buffer()
            if values is None:
                raise ArrowFormatError("missing values buffer")
            return FixedSizeArray(dtype, length, values, validity)
        if isinstance(dtype, VarBinaryType):
            offsets = self.buffer()
            values = self.buffer()
            if offsets is None or values is None:
                raise ArrowFormatError("missing varbinary buffers")
            return VarBinaryArray(dtype, length, offsets, values, validity)
        raise ArrowFormatError(f"cannot deserialize type {dtype!r}")

    def batch_body(self, schema: Schema) -> RecordBatch:
        """The rest of a batch whose 4-byte marker was already consumed."""
        self.take(4)  # the padding after the marker
        (num_rows,) = self.unpack(_I64)
        columns = [self.array(field.dtype, num_rows) for field in schema]
        return RecordBatch(schema, columns)


def read_table(raw: bytes | bytearray | memoryview) -> Table:
    """Parse a stream produced by :func:`write_table`, without copying.

    Every buffer of the returned table is a read-only view of ``raw`` (which
    the arrays keep alive); the only copy made is of a payload whose start
    is not 8-byte aligned.
    """
    reader = _Reader(raw)
    schema = reader.schema()
    batches = []
    while True:
        marker = reader.take(len(END_MARKER)).tobytes()
        if marker == END_MARKER:
            break
        if marker != _BATCH_MARKER:
            raise ArrowFormatError(f"unexpected marker {marker!r}")
        batches.append(reader.batch_body(schema))
    return Table(schema, batches)
