"""Zero-copy Arrow views of frozen blocks.

A FROZEN block *is* Arrow data: its fixed-width column regions are valid
Arrow buffers in place, and the gather phase produced canonical offsets and
values buffers for varlen columns.  This module materializes that fact as
:class:`~repro.arrowfmt.table.RecordBatch` objects whose buffers alias the
block's memory — what the export layer ships without serialization.  A
frozen block is immutable until a writer reheats it, so its batch is built
once per freeze (:func:`frozen_batch`) and every pinned reader reuses it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.arrowfmt.array import (
    Array,
    DictionaryArray,
    FixedSizeArray,
    VarBinaryArray,
)
from repro.arrowfmt.buffer import Bitmap, Buffer
from repro.arrowfmt.builder import VarBinaryBuilder
from repro.arrowfmt.datatypes import (
    DictionaryType,
    Field,
    FixedWidthType,
    INT32,
    Schema,
    VarBinaryType,
)
from repro.errors import BlockStateError, StorageError
from repro.storage.constants import BlockState
from repro.storage.layout import BlockLayout
from repro.transform.gather import live_prefix_length

if TYPE_CHECKING:
    from repro.storage.block import RawBlock


def table_schema(layout: BlockLayout, dictionary_columns: set[int] | None = None) -> Schema:
    """The Arrow schema corresponding to a block layout.

    Columns in ``dictionary_columns`` are typed as dictionary-encoded, the
    alternative cold format of Section 4.4.
    """
    dictionary_columns = dictionary_columns or set()
    fields = []
    for column_id, spec in enumerate(layout.columns):
        dtype = spec.dtype
        if column_id in dictionary_columns:
            if not isinstance(dtype, VarBinaryType):
                raise StorageError("only varlen columns can be dictionary-encoded")
            dtype = DictionaryType(INT32, dtype)
        fields.append(Field(spec.name, dtype, nullable=True))
    return Schema(fields)


def frozen_batch(block: "RawBlock"):
    """The block's record batch, built once per freeze and shared by readers.

    The transformer calls this inside the FREEZING window, right after it
    stamps ``frozen_at``; the batch is memoised on the block keyed by that
    stamp (a fresh timestamp on every freeze, so a re-frozen block never
    matches an old batch) and dropped when a writer reheats the block.
    Readers must hold a frozen-read pin (:meth:`RawBlock.begin_frozen_read`):
    the pin, not the racy state flag, guarantees the buffers are unchanged,
    so a writer that has already flipped the block HOT and is waiting for
    the pin to drain does not fail the read.  A block frozen without the
    transformer has no memo and is rebuilt on every call.
    """
    if block.reader_count <= 0 and block.state is not BlockState.FREEZING:
        raise BlockStateError(
            f"block {block.block_id}: frozen_batch needs a frozen-read pin "
            f"(block is {block.state.name})"
        )
    memo = block.arrow_batch
    if memo is not None and memo[0] == block.frozen_at:
        return memo[1]
    batch = block_to_record_batch(block, require_frozen=False)
    if block.state is BlockState.FREEZING:
        block.arrow_batch = (block.frozen_at, batch)
    return batch


def block_to_record_batch(block: "RawBlock", require_frozen: bool = True):
    """Expose a frozen block as a record batch without copying buffers.

    Fixed columns alias the block's column regions; varlen columns alias the
    gathered offsets/values buffers; dictionary-compressed columns come back
    as :class:`DictionaryArray`.  Every call re-derives the batch from the
    block and re-runs the checks (dense live prefix, offsets, schema) —
    readers want the memoised :func:`frozen_batch`; this is its builder and
    the integrity checker's.  Raises :class:`BlockStateError` unless the
    block is FROZEN (pass ``require_frozen=False`` only with exclusive
    access or a frozen-read pin).
    """
    from repro.arrowfmt.table import RecordBatch

    if require_frozen and block.state is not BlockState.FROZEN:
        raise BlockStateError(
            f"in-place Arrow access requires FROZEN, block is {block.state.name}"
        )
    layout = block.layout
    n = live_prefix_length(block)
    columns: list[Array] = []
    dictionary_columns = set(block.dictionaries)
    for column_id, spec in enumerate(layout.columns):
        validity = _prefix_validity(block, column_id, n)
        if not spec.is_varlen:
            view = block.column_view(column_id)[:n]
            columns.append(
                FixedSizeArray(spec.dtype, n, Buffer.from_numpy(view), validity)  # type: ignore[arg-type]
            )
        elif column_id in dictionary_columns:
            codes, words = block.dictionaries[column_id]
            word_offsets, dict_values = block.gathered[column_id]
            dictionary = VarBinaryArray(
                spec.dtype,  # type: ignore[arg-type]
                len(words),
                Buffer.from_numpy(word_offsets),
                Buffer.from_numpy(dict_values),
            )
            code_array = FixedSizeArray(INT32, n, Buffer.from_numpy(codes), validity)
            columns.append(
                DictionaryArray(
                    DictionaryType(INT32, spec.dtype), code_array, dictionary, validity
                )
            )
        else:
            if column_id not in block.gathered:
                raise StorageError(
                    f"block {block.block_id} column {spec.name!r} was never gathered"
                )
            offsets, values = block.gathered[column_id]
            columns.append(
                VarBinaryArray(
                    spec.dtype,  # type: ignore[arg-type]
                    n,
                    Buffer.from_numpy(offsets),
                    Buffer.from_numpy(values),
                    validity,
                )
            )
    schema = table_schema(layout, dictionary_columns)
    return RecordBatch(schema, columns)


def rows_to_record_batch(layout: BlockLayout, rows: list[dict]):
    """Build a record batch by *copying* rows (the materialization path for
    hot blocks: a transactional snapshot serialized through builders)."""
    from repro.arrowfmt.builder import FixedSizeBuilder
    from repro.arrowfmt.table import RecordBatch

    columns: list[Array] = []
    for column_id, spec in enumerate(layout.columns):
        if isinstance(spec.dtype, FixedWidthType):
            builder = FixedSizeBuilder(spec.dtype)
        else:
            builder = VarBinaryBuilder(spec.dtype)  # type: ignore[assignment]
        for row in rows:
            builder.append(row[column_id])
        columns.append(builder.finish())
    return RecordBatch(table_schema(layout), columns)


def _prefix_validity(block: "RawBlock", column_id: int, n: int) -> Bitmap | None:
    bitmap = block.validity_bitmaps[column_id]
    if n and int(bitmap.to_numpy()[:n].sum()) == n:
        return None  # no nulls: Arrow allows omitting the validity buffer
    return Bitmap(bitmap.buffer, n)
