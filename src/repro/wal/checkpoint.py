"""Checkpoints: bounded-log recovery (Section 3.4).

The paper achieves durability "through write-ahead logging and
checkpoints".  A checkpoint here is a consistent snapshot of every table,
serialized as Arrow IPC streams with one extra ``__slot`` column recording
each tuple's physical TupleSlot.  Recovery loads the checkpoint (seeding
the old-slot → new-slot map) and then replays the log suffix, so updates
and deletes that reference pre-checkpoint tuples resolve correctly.

Checkpointing is quiescent: the caller must ensure no concurrent writers
(the Database facade flushes the log, snapshots, then truncates).  Fuzzy
checkpoints are out of scope for the paper and for this reproduction.
"""

from __future__ import annotations

import io
import struct
from typing import TYPE_CHECKING

from repro.arrowfmt import ipc
from repro.arrowfmt.builder import FixedSizeBuilder, VarBinaryBuilder
from repro.fault.crashpoints import crash_point
from repro.arrowfmt.datatypes import Field, FixedWidthType, INT64, Schema
from repro.arrowfmt.table import RecordBatch, Table
from repro.errors import RecoveryError
from repro.wal.recovery import RecoveryManager

if TYPE_CHECKING:
    from repro.db import Database

MAGIC = b"RCKPT1\x00\x00"
_SLOT_COLUMN = "__slot"


def write_checkpoint(db: "Database") -> bytes:
    """Serialize a consistent snapshot of every catalog table."""
    out = io.BytesIO()
    out.write(MAGIC)
    txn = db.begin()
    tables = db.catalog.data_tables()
    out.write(struct.pack("<I", len(tables)))
    for name, table in tables.items():
        crash_point("checkpoint.write")
        raw_name = name.encode("utf-8")
        out.write(struct.pack("<H", len(raw_name)))
        out.write(raw_name)
        stream = _table_snapshot_stream(db, txn, table)
        out.write(struct.pack("<q", len(stream)))
        out.write(stream)
    db.commit(txn)
    return out.getvalue()


def _table_snapshot_stream(db: "Database", txn, table) -> bytes:
    layout = table.layout
    fields = [Field(_SLOT_COLUMN, INT64, nullable=False)]
    builders = [FixedSizeBuilder(INT64)]
    for spec in layout.columns:
        fields.append(Field(spec.name, spec.dtype, nullable=True))
        if isinstance(spec.dtype, FixedWidthType):
            builders.append(FixedSizeBuilder(spec.dtype))
        else:
            builders.append(VarBinaryBuilder(spec.dtype))
    for slot, row in table.scan(txn):
        builders[0].append(slot.pack())
        for column_id in range(layout.num_columns):
            builders[column_id + 1].append(row.get(column_id))
    schema = Schema(fields)
    batch = RecordBatch(schema, [b.finish() for b in builders])
    return ipc.write_table(Table(schema, [batch]))


def load_checkpoint(db: "Database", raw: bytes) -> RecoveryManager:
    """Load a checkpoint into a fresh database (tables must exist).

    Returns a :class:`RecoveryManager` whose slot map is seeded with the
    checkpoint's tuples, ready to replay the log suffix.  Each table's
    rows are placed block at a time, like replayed ones.
    """
    stream = io.BytesIO(raw)
    if stream.read(len(MAGIC)) != MAGIC:
        raise RecoveryError("not a checkpoint stream")
    (table_count,) = struct.unpack("<I", _read(stream, 4))
    recovery = RecoveryManager(db.txn_manager, db.catalog.data_tables())
    for _ in range(table_count):
        (name_len,) = struct.unpack("<H", _read(stream, 2))
        name = _read(stream, name_len).decode("utf-8")
        (stream_len,) = struct.unpack("<q", _read(stream, 8))
        arrow_table = ipc.read_table(_read(stream, stream_len))
        _load_table(db, recovery, name, arrow_table)
    return recovery


def _load_table(db: "Database", recovery: RecoveryManager, name: str, arrow_table: Table) -> None:
    try:
        table = db.catalog.table(name)
    except Exception as exc:
        raise RecoveryError(f"checkpoint references unknown table {name!r}") from exc
    column_names = arrow_table.schema.names
    if column_names[0] != _SLOT_COLUMN:
        raise RecoveryError("checkpoint table stream missing the slot column")
    expected = [_SLOT_COLUMN] + [spec.name for spec in table.layout.columns]
    if column_names != expected:
        raise RecoveryError(
            f"checkpoint schema for {name!r} does not match the catalog: "
            f"{column_names} vs {expected}"
        )
    columns = [arrow_table.column_values(column) for column in column_names]
    recovery.load(name, columns[0], [dict(enumerate(row)) for row in zip(*columns[1:])])


def recover(db: "Database", checkpoint: bytes, log_suffix: bytes) -> int:
    """Full recovery: checkpoint, then log replay; returns txns replayed."""
    recovery = load_checkpoint(db, checkpoint)
    return recovery.replay(log_suffix)


def _read(stream: io.BytesIO, n: int) -> bytes:
    raw = stream.read(n)
    if len(raw) != n:
        raise RecoveryError("truncated checkpoint stream")
    return raw
