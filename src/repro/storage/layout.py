"""Block layouts: slot counts and column offsets (Section 3.2).

Every block of a table shares one :class:`BlockLayout`, computed once when
the table is created.  The layout records (1) the number of tuple slots per
block, (2) each attribute's size, and (3) the byte offset of each column
region (and its validity bitmap) from the head of the block.  Combined with
a :class:`~repro.storage.tuple_slot.TupleSlot`, this lets the engine compute
the address of any attribute in constant time.  :attr:`BlockLayout.access`
compiles those offsets, once per table, into the plan every per-slot read
and write of :class:`~repro.storage.data_table.DataTable` follows.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import NamedTuple

from repro.arrowfmt.datatypes import BoolType, DataType, FixedWidthType, VarBinaryType
from repro.errors import StorageError
from repro.storage.constants import (
    BLOCK_HEADER_SIZE,
    BLOCK_SIZE,
    COLUMN_ALIGNMENT,
    VARLEN_ENTRY_SIZE,
)


def _pad(nbytes: int) -> int:
    return (nbytes + COLUMN_ALIGNMENT - 1) // COLUMN_ALIGNMENT * COLUMN_ALIGNMENT


#: :attr:`ColumnAccess.kind`: a fixed-width value (bools included), a
#: varlen entry decoded to ``str``, a varlen entry read as ``bytes``.
KIND_FIXED, KIND_UTF8, KIND_BINARY = range(3)

#: Standard-size ``struct`` codes by numpy ``(kind, itemsize)``.  Not
#: ``dtype.char``: numpy's ``l``/``L`` are 8-byte int64/uint64 where
#: ``struct``'s standard sizes make them 4 bytes.
_STRUCT_CODES = {
    ("i", 1): "b", ("i", 2): "h", ("i", 4): "i", ("i", 8): "q",
    ("u", 1): "B", ("u", 2): "H", ("u", 4): "I", ("u", 8): "Q",
    ("f", 4): "f", ("f", 8): "d",
}


def _fixed_codec(dtype: FixedWidthType) -> struct.Struct:
    """The little-endian ``struct`` reading one value of ``dtype``: ``?``
    for bools (stored as one byte), ``{n}s`` for fixed binary."""
    if isinstance(dtype, BoolType):
        return struct.Struct("<?")
    kind, width = dtype.numpy_dtype.kind, dtype.numpy_dtype.itemsize
    code = f"{width}s" if kind == "V" else _STRUCT_CODES[kind, width]
    return struct.Struct("<" + code)


class ColumnAccess(NamedTuple):
    """One column's compiled access plan: a slot's validity bit is bit
    ``slot & 7`` of byte ``validity_offset + (slot >> 3)``, and its value
    (or 16-byte varlen entry) starts at ``column_offset + slot * width``,
    all from the head of the block."""

    kind: int
    validity_offset: int
    column_offset: int
    width: int
    #: Reads one fixed-width value (``unpack_from``); ``None`` for varlen.
    codec: struct.Struct | None


@dataclass(frozen=True)
class ColumnSpec:
    """One attribute of a table: a name and an Arrow logical type."""

    name: str
    dtype: DataType

    @property
    def is_varlen(self) -> bool:
        """Whether values are stored as relaxed 16-byte VarlenEntries."""
        return isinstance(self.dtype, VarBinaryType)

    @property
    def attr_size(self) -> int:
        """Bytes occupied per slot inside a block."""
        if isinstance(self.dtype, FixedWidthType):
            return self.dtype.byte_width
        if isinstance(self.dtype, VarBinaryType):
            return VARLEN_ENTRY_SIZE
        raise StorageError(f"type {self.dtype!r} cannot be stored in a block")


class BlockLayout:
    """Precomputed physical layout shared by all blocks of a table."""

    def __init__(
        self,
        columns: list[ColumnSpec],
        block_size: int = BLOCK_SIZE,
    ) -> None:
        if not columns:
            raise StorageError("a layout needs at least one column")
        names = [c.name for c in columns]
        if len(set(names)) != len(names):
            raise StorageError(f"duplicate column names: {names}")
        self.columns = list(columns)
        self.block_size = block_size
        self.attr_sizes = [c.attr_size for c in columns]
        self.num_slots = self._solve_capacity()
        if self.num_slots < 1:
            raise StorageError(
                f"tuple of {sum(self.attr_sizes)} bytes does not fit in a "
                f"{block_size}-byte block"
            )
        self._compute_offsets()

    @property
    def num_columns(self) -> int:
        """Number of user-visible columns (the version pointer column the
        transaction engine adds is not part of the physical layout)."""
        return len(self.columns)

    def varlen_column_ids(self) -> list[int]:
        """Indices of columns stored as VarlenEntries."""
        return [i for i, c in enumerate(self.columns) if c.is_varlen]

    def fixed_column_ids(self) -> list[int]:
        """Indices of fixed-width columns."""
        return [i for i, c in enumerate(self.columns) if not c.is_varlen]

    def index_of(self, name: str) -> int:
        """Position of the column called ``name``."""
        for i, column in enumerate(self.columns):
            if column.name == name:
                return i
        raise StorageError(f"no column named {name!r}")

    def layout_key(self) -> tuple:
        """Hashable identity used to group blocks for compaction; blocks may
        only be compacted together when their layouts are identical."""
        return tuple((c.name, c.dtype.name) for c in self.columns) + (self.block_size,)

    def _bitmap_bytes(self, slots: int) -> int:
        return _pad((slots + 7) // 8)

    def _bytes_for(self, slots: int) -> int:
        total = BLOCK_HEADER_SIZE + self._bitmap_bytes(slots)
        for size in self.attr_sizes:
            total += self._bitmap_bytes(slots) + _pad(slots * size)
        return total

    def _solve_capacity(self) -> int:
        low, high = 0, self.block_size * 8
        while low < high:
            mid = (low + high + 1) // 2
            if self._bytes_for(mid) <= self.block_size:
                low = mid
            else:
                high = mid - 1
        return low

    def _compute_offsets(self) -> None:
        slots = self.num_slots
        cursor = BLOCK_HEADER_SIZE
        self.allocation_bitmap_offset = cursor
        cursor += self._bitmap_bytes(slots)
        self.validity_offsets: list[int] = []
        self.column_offsets: list[int] = []
        for size in self.attr_sizes:
            self.validity_offsets.append(cursor)
            cursor += self._bitmap_bytes(slots)
            self.column_offsets.append(cursor)
            cursor += _pad(slots * size)
        self.used_bytes = cursor
        if cursor > self.block_size:
            raise StorageError("layout overflows block (internal error)")
        #: Per-column :class:`ColumnAccess`, indexed by column id.
        self.access = [
            ColumnAccess(
                (KIND_UTF8 if spec.dtype.is_utf8 else KIND_BINARY)
                if isinstance(spec.dtype, VarBinaryType)
                else KIND_FIXED,
                validity,
                column,
                size,
                None if spec.is_varlen else _fixed_codec(spec.dtype),  # type: ignore[arg-type]
            )
            for spec, validity, column, size in zip(
                self.columns, self.validity_offsets, self.column_offsets, self.attr_sizes
            )
        ]

    def attribute_offset(self, column_id: int, slot: int) -> int:
        """Byte offset of attribute ``column_id`` of tuple ``slot`` — the
        constant-time address computation of Section 3.2."""
        if not 0 <= slot < self.num_slots:
            raise StorageError(f"slot {slot} out of range [0, {self.num_slots})")
        return self.column_offsets[column_id] + slot * self.attr_sizes[column_id]

    def __repr__(self) -> str:
        return (
            f"BlockLayout(columns={[c.name for c in self.columns]}, "
            f"slots={self.num_slots})"
        )
