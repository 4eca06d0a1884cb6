"""The row-based PostgreSQL wire protocol (the Figure 15 baseline).

Faithful to the shape of the v3 protocol's ``DataRow`` messages: each tuple
becomes one message of text-encoded fields, each prefixed by its length.
The costs this reproduces are the real ones: per-value text conversion on
the server, one message per row on the wire, and per-value parsing on the
client — the serialization bottleneck Section 6.3 identifies.

The server encodes from columns (:func:`encode_columns`): a chunk of rows
at a time, each column's values become length-prefixed text fields with
one comprehension, and the chunk's messages are joined; only the chunks
outlive it.
"""

from __future__ import annotations

import io
import struct
from typing import Any, Iterable, Sequence

from repro.errors import SerializationError

_NULL = -1

_INT32 = struct.Struct("<i").pack
#: Message tag, body length and field count: ``<cI`` then ``<H``.
_HEADER = struct.Struct("<cIH").pack
_NULL_FIELD = _INT32(_NULL)

#: Rows whose per-field objects are alive at once while encoding.
_CHUNK_ROWS = 256


def _text(value: Any) -> bytes:
    """A non-NULL value as its text field: bytes as they are, ``repr`` for
    floats, ``t``/``f`` for bools, ``str`` in UTF-8 for everything else."""
    if isinstance(value, bytes):
        return value
    if isinstance(value, float):
        return repr(value).encode("ascii")
    if isinstance(value, bool):
        return b"t" if value else b"f"
    return str(value).encode("utf-8")


def _texts(values: Sequence[Any]) -> list[bytes | None]:
    """Each value's text (``None`` for NULL).  A column holding one exact
    type besides NULL is converted without the per-value dispatch."""
    kinds = set(map(type, values))
    kinds.discard(type(None))
    kind = kinds.pop() if len(kinds) == 1 else None
    if kind is float:
        return [None if v is None else b"%r" % v for v in values]
    if kind is int:
        return [None if v is None else b"%d" % v for v in values]
    if kind is str:
        return [None if v is None else v.encode("utf-8") for v in values]
    return [None if v is None else _text(v) for v in values]


def _fields(values: Sequence[Any]) -> list[bytes]:
    """Each value as a length-prefixed field; NULL is the length ``-1``."""
    return [
        _NULL_FIELD if raw is None else _INT32(len(raw)) + raw
        for raw in _texts(values)
    ]


def encode_columns(
    columns: Sequence[Sequence[Any]], num_rows: int | None = None
) -> tuple[bytes, int]:
    """Encode columns of ``num_rows`` values (default: the first column's
    length) as one DataRow message per row; returns (stream, message
    count).  ``num_rows`` is needed only when there are no columns."""
    if num_rows is None:
        num_rows = len(columns[0]) if columns else 0
    if any(len(column) != num_rows for column in columns):
        raise SerializationError(f"every column must hold {num_rows} values")
    if not columns:
        return _HEADER(b"D", 2, 0) * num_rows, num_rows
    chunks = []
    for start in range(0, num_rows, _CHUNK_ROWS):
        fields = [_fields(column[start : start + _CHUNK_ROWS]) for column in columns]
        messages = [
            _HEADER(b"D", len(body) + 2, len(columns)) + body
            for body in map(b"".join, zip(*fields))
        ]
        chunks.append(b"".join(messages))
    return b"".join(chunks), num_rows


def encode_rows(rows: Iterable[Sequence[Any]]) -> tuple[bytes, int]:
    """Encode tuples of one width; returns (stream, message count)."""
    rows = list(rows)
    try:
        columns = list(zip(*rows, strict=True))
    except ValueError:
        raise SerializationError("rows of different widths") from None
    return encode_columns(columns, len(rows))


def decode_rows(raw: bytes) -> list[tuple]:
    """Client-side parse back into tuples of strings/bytes/None.

    Like a real driver, the client sees text fields; numeric re-typing is
    the consumer's job (and more client-side cost in real pipelines).
    """
    rows = []
    stream = io.BytesIO(raw)
    while True:
        header = stream.read(5)
        if not header:
            return rows
        if len(header) != 5 or header[:1] != b"D":
            raise SerializationError("corrupt DataRow stream")
        (length,) = struct.unpack("<I", header[1:])
        body = stream.read(length)
        if len(body) != length:
            raise SerializationError("truncated DataRow message")
        (field_count,) = struct.unpack_from("<H", body, 0)
        offset = 2
        fields: list[Any] = []
        for _ in range(field_count):
            (flen,) = struct.unpack_from("<i", body, offset)
            offset += 4
            if flen == _NULL:
                fields.append(None)
            else:
                fields.append(body[offset : offset + flen].decode("utf-8", "replace"))
                offset += flen
        rows.append(tuple(fields))
