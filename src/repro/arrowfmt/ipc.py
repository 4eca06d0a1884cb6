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
                dictionary columns add  dictionary_length:i64  before the
                dictionary's own buffers
    "EOS\\0"
"""

from __future__ import annotations

import json
import struct

import numpy as np

from repro.arrowfmt.array import (
    Array,
    DictionaryArray,
    FixedSizeArray,
    VarBinaryArray,
)
from repro.arrowfmt.buffer import Bitmap, Buffer
from repro.arrowfmt.datatypes import (
    DictionaryType,
    FixedWidthType,
    Schema,
    VarBinaryType,
)
from repro.arrowfmt.table import RecordBatch, Table
from repro.errors import ArrowFormatError

MAGIC = b"RARROW1\x00"
FILE_MAGIC = b"RARROWF1"
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
    elif isinstance(array, DictionaryArray):
        _buffer_parts(parts, array.codes.values)
        parts.append(_I64.pack(array.dictionary.length))
        _array_parts(parts, array.dictionary)
    else:
        raise ArrowFormatError(f"cannot serialize array type {type(array).__name__}")


def batch_parts(batch: RecordBatch) -> list[Part]:
    """One record batch as stream parts; buffers are views, not copies."""
    parts: list[Part] = [_BATCH_HEADER.pack(_BATCH_MARKER, batch.num_rows)]
    for column in batch.columns:
        _array_parts(parts, column)
    return parts


def schema_header(schema: Schema, magic: bytes = MAGIC) -> bytes:
    """``magic``, the header length and the schema JSON, padded with JSON
    whitespace so the first batch starts 8-byte aligned."""
    header = json.dumps(schema.to_json()).encode("utf-8")
    header += b" " * (-(len(magic) + _I32.size + len(header)) % _ALIGN)
    return magic + _I32.pack(len(header)) + header


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


def write_file(table: Table) -> bytes:
    """Serialize a table in the *file* format: stream body + footer.

    The footer records each batch's byte offset, enabling random access —
    the property the Arrow file (Feather) format adds over the stream.
    Layout::

        FILE_MAGIC  <stream-format body without end marker>
        footer: batch offsets (i64 each)  batch count:i32
                footer length:i32  FILE_MAGIC
    """
    parts: list[Part] = [schema_header(table.schema, FILE_MAGIC)]
    position = len(parts[0])
    offsets = []
    for batch in table.batches:
        offsets.append(position)
        encoded = batch_parts(batch)
        position += sum(len(part) for part in encoded)
        parts += encoded
    footer = b"".join(_I64.pack(offset) for offset in offsets) + _I32.pack(len(offsets))
    # Footer length covers offsets + count + this length field (not the
    # trailing magic), so readers locate footer_start from the file tail.
    parts += [footer, _I32.pack(len(footer) + _I32.size), FILE_MAGIC]
    return b"".join(parts)


# ---------------------------------------------------------------------- #
# reading                                                                 #
# ---------------------------------------------------------------------- #


class _Reader:
    """Bounds-checked cursor over one payload; buffers come back as
    read-only views of it."""

    __slots__ = ("raw", "data", "size", "pos")

    def __init__(self, raw: bytes | bytearray | memoryview, pos: int = 0) -> None:
        data = np.frombuffer(raw, dtype=np.uint8)
        if data.ctypes.data % _ALIGN:
            # Foreign memory at an odd address: one copy restores alignment.
            raw = data = data.copy()
        data.flags.writeable = False
        self.raw = raw
        self.data = data
        self.size = len(data)
        self.pos = pos

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

    def schema(self, magic: bytes, bad_magic: str) -> Schema:
        if self.take(len(magic)).tobytes() != magic:
            raise ArrowFormatError(bad_magic)
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
        if isinstance(dtype, DictionaryType):
            codes_buf = self.buffer()
            if codes_buf is None:
                raise ArrowFormatError("missing dictionary codes buffer")
            (dict_length,) = self.unpack(_I64)
            dictionary = self.array(dtype.value_type, dict_length)
            codes = FixedSizeArray(dtype.index_type, length, codes_buf, validity)
            return DictionaryArray(dtype, codes, dictionary, validity)
        raise ArrowFormatError(f"cannot deserialize type {dtype!r}")

    def batch_body(self, schema: Schema) -> RecordBatch:
        """The rest of a batch whose 4-byte marker was already consumed."""
        self.take(4)  # the padding after the marker
        (num_rows,) = self.unpack(_I64)
        columns = [self.array(field.dtype, num_rows) for field in schema]
        return RecordBatch(schema, columns)


def _file_footer(raw: bytes) -> tuple[Schema, list[int]]:
    if len(raw) < 2 * len(FILE_MAGIC) + 8 or not raw.startswith(FILE_MAGIC):
        raise ArrowFormatError("not a repro Arrow file")
    if not raw.endswith(FILE_MAGIC):
        raise ArrowFormatError("truncated Arrow file (missing trailing magic)")
    (footer_len,) = _I32.unpack_from(raw, len(raw) - len(FILE_MAGIC) - 4)
    footer_start = len(raw) - len(FILE_MAGIC) - footer_len
    if footer_start < len(FILE_MAGIC):
        raise ArrowFormatError("corrupt Arrow file footer")
    (count,) = _I32.unpack_from(raw, len(raw) - len(FILE_MAGIC) - 8)
    if count < 0 or footer_start + count * 8 > len(raw):
        raise ArrowFormatError("corrupt Arrow file footer")
    offsets = [_I64.unpack_from(raw, footer_start + i * 8)[0] for i in range(count)]
    schema = _Reader(raw).schema(FILE_MAGIC, "not a repro Arrow file")
    return schema, offsets


def read_file_batch(raw: bytes, index: int) -> RecordBatch:
    """Random access: read only batch ``index`` from a file image."""
    schema, offsets = _file_footer(raw)
    if not 0 <= index < len(offsets):
        raise ArrowFormatError(
            f"batch index {index} out of range [0, {len(offsets)})"
        )
    if offsets[index] < 0:
        raise ArrowFormatError("footer offset does not point at a batch")
    reader = _Reader(raw, offsets[index])
    if reader.take(len(_BATCH_MARKER)).tobytes() != _BATCH_MARKER:
        raise ArrowFormatError("footer offset does not point at a batch")
    return reader.batch_body(schema)


def read_file(raw: bytes) -> Table:
    """Read a whole file image back into a table."""
    schema, offsets = _file_footer(raw)
    return Table(schema, [read_file_batch(raw, i) for i in range(len(offsets))])


def file_batch_count(raw: bytes) -> int:
    """Number of batches recorded in a file image's footer."""
    return len(_file_footer(raw)[1])


def read_table(raw: bytes | bytearray | memoryview) -> Table:
    """Parse a stream produced by :func:`write_table`, without copying.

    Every buffer of the returned table is a read-only view of ``raw`` (which
    the arrays keep alive); the only copy made is of a payload whose start
    is not 8-byte aligned.
    """
    reader = _Reader(raw)
    schema = reader.schema(MAGIC, "bad magic: not a repro IPC stream")
    batches = []
    while True:
        marker = reader.take(len(END_MARKER)).tobytes()
        if marker == END_MARKER:
            break
        if marker != _BATCH_MARKER:
            raise ArrowFormatError(f"unexpected marker {marker!r}")
        batches.append(reader.batch_body(schema))
    return Table(schema, batches)
