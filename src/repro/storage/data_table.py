"""The Data Table API: transactional access over blocks (Section 3.1).

The data table is the abstraction layer between the transaction engine and
raw block storage.  It materializes the correct tuple version into the
transaction on reads, installs before-image delta records on writes, and is
the only component that understands both the relaxed block format and the
version-pointer column.

Concurrency model: the C++ engine installs version-chain heads with atomic
compare-and-swap and relies on aligned 8-byte stores being atomic for
in-place updates.  Python offers neither, so each block carries a write
latch that serializes (version-pointer install + in-place write) and the
snapshot step of reads.  Chain *traversal* happens outside the latch, as in
the paper.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Any, Iterator, Mapping, Sequence

import numpy as np

from repro.errors import StorageError
from repro.storage.block import RawBlock, zone_bounds
from repro.storage.block_store import BlockStore
from repro.storage.constants import BlockState, VARLEN_ENTRY_SIZE
from repro.storage.layout import KIND_FIXED, KIND_UTF8, BlockLayout, ColumnSpec
from repro.storage.projection import ProjectedRow
from repro.storage.tuple_slot import TupleSlot
from repro.storage.varlen import decode_entry, encode_entry, encode_entries, free_entry
from repro.txn.redo import RedoRecord, check_loggable
from repro.txn.undo import (
    DeleteUndoRecord,
    InsertUndoRecord,
    UndoRecord,
    UpdateUndoRecord,
)

if TYPE_CHECKING:
    from repro.txn.context import TransactionContext

#: The entry a varlen NULL leaves in place: no size, no heap reference.
_NULL_ENTRY = bytes(VARLEN_ENTRY_SIZE)


class DataTable:
    """One table's tuples, spread over 1 MB blocks of a shared layout."""

    def __init__(self, block_store: BlockStore, layout: BlockLayout, name: str) -> None:
        self.block_store = block_store
        self.layout = layout
        self.name = name
        self.blocks: list[RawBlock] = []
        self._blocks_by_id: dict[int, RawBlock] = {}
        self._insert_lock = threading.Lock()
        self._insertion_block: RawBlock | None = None
        #: Listeners notified with (txn, slot, kind, new_values, old_values)
        #: after each write; index maintenance hooks in here.
        self._write_listeners: list[Any] = []
        #: Union of columns any listener needs old values for on deletes,
        #: ascending.
        self._indexed_columns: list[int] = []
        self._all_columns = range(layout.num_columns)

    # ------------------------------------------------------------------ #
    # public API                                                          #
    # ------------------------------------------------------------------ #

    def insert(self, txn: "TransactionContext", values: Mapping[int, Any]) -> TupleSlot:
        """Insert a tuple; returns its :class:`TupleSlot`.

        ``values`` must provide every column (``None`` for SQL NULL).  The
        insert is invisible to concurrent snapshots until commit, via an
        insert undo record whose before-image is "slot absent".
        """
        self._require_active(txn)
        txn.ensure_writable()
        missing = set(range(self.layout.num_columns)) - set(values)
        if missing:
            raise StorageError(f"insert missing columns {sorted(missing)}")
        check_loggable(values.values())
        block, offset = self._allocate_slot()
        slot = TupleSlot(block.block_id, offset)
        with block.write_latch:
            record = InsertUndoRecord(txn, self, slot)
            txn.undo_buffer.append(record)
            block.version_ptrs[offset] = record
            self._write_in_place(block, offset, values.items())
        txn.redo_buffer.append(
            RedoRecord(self.name, slot, RedoRecord.INSERT, ProjectedRow(values))
        )
        self._notify(txn, slot, "insert", dict(values), None)
        return slot

    def insert_into(
        self, txn: "TransactionContext", slot: TupleSlot, values: Mapping[int, Any]
    ) -> None:
        """Insert into a *specific* empty slot (compaction's tuple moves).

        The caller (the transformation pipeline) guarantees the slot is a
        gap; regular inserts go through :meth:`insert`, which allocates.
        Stale varlen contents left behind by a committed delete are freed
        here — this is where deleted slots are recycled (Section 3.3).
        ``values`` are a row read back from the table, so the log can
        encode them (:func:`~repro.txn.redo.check_loggable` is not rerun).
        """
        self._require_active(txn)
        block = self._block_of(slot)
        offset = slot.offset
        block.touch_hot()
        with block.write_latch:
            if block.is_allocated(offset):
                raise StorageError(f"{slot} is already allocated")
            if block.version_ptrs[offset] is not None:
                raise StorageError(f"{slot} still has a version chain")
            self._free_varlens(block, offset)
            block.set_allocated(offset, True)
            record = InsertUndoRecord(txn, self, slot)
            txn.undo_buffer.append(record)
            block.version_ptrs[offset] = record
            self._write_in_place(block, offset, values.items())
        txn.redo_buffer.append(
            RedoRecord(self.name, slot, RedoRecord.INSERT, ProjectedRow(values))
        )
        self._notify(txn, slot, "insert", dict(values), None)

    def update(
        self, txn: "TransactionContext", slot: TupleSlot, delta: Mapping[int, Any]
    ) -> bool:
        """Update a subset of columns in place.

        Returns ``False`` (and marks the transaction ``must_abort``) on a
        write-write conflict — the engine disallows them outright to avoid
        cascading rollbacks (Section 3.1).
        """
        self._require_active(txn)
        txn.ensure_writable()
        if not delta:
            raise StorageError("empty update delta")
        check_loggable(delta.values())
        block = self._block_of(slot)
        block.touch_hot()
        with block.write_latch:
            if not self._writable(txn, block, slot.offset):
                txn.must_abort = True
                return False
            column_ids = sorted(delta)
            before = self._read_in_place(block, slot.offset, column_ids)
            before_raw = self._capture_raw_varlen(block, slot.offset, column_ids)
            record = UpdateUndoRecord(txn, self, slot, before, before_raw)
            txn.undo_buffer.append(record)
            record.next = block.version_ptrs[slot.offset]
            block.version_ptrs[slot.offset] = record
            self._write_in_place(block, slot.offset, delta.items())
        txn.redo_buffer.append(
            RedoRecord(self.name, slot, RedoRecord.UPDATE, ProjectedRow(delta))
        )
        self._notify(txn, slot, "update", dict(delta), before.to_dict())
        return True

    def delete(self, txn: "TransactionContext", slot: TupleSlot) -> bool:
        """Delete a tuple: flips its allocation bit, contents untouched."""
        self._require_active(txn)
        txn.ensure_writable()
        block = self._block_of(slot)
        block.touch_hot()
        with block.write_latch:
            if not self._writable(txn, block, slot.offset):
                txn.must_abort = True
                return False
            if not block.is_allocated(slot.offset):
                raise StorageError(f"{slot} is not allocated")
            old_indexed = self._read_in_place(block, slot.offset, self._indexed_columns).to_dict()
            record = DeleteUndoRecord(txn, self, slot)
            txn.undo_buffer.append(record)
            record.next = block.version_ptrs[slot.offset]
            block.version_ptrs[slot.offset] = record
            block.set_allocated(slot.offset, False)
        txn.redo_buffer.append(RedoRecord(self.name, slot, RedoRecord.DELETE, None))
        self._notify(txn, slot, "delete", None, old_indexed)
        return True

    def place(
        self, txn: "TransactionContext", rows: Sequence[Mapping[int, Any]]
    ) -> list[TupleSlot]:
        """Insert ``rows`` as committed, version-less tuples, block at a time.

        For tables no other transaction can observe yet (recovery and
        checkpoint loading): the rows get no undo records, so they are
        visible to every snapshot at once and an abort does not remove
        them.  Every column of a block is one vectorized write, and a
        block joins the table only once it is fully written.  ``txn``
        receives the redo records (a recovered database logs what it
        loaded); each write listener receives all rows in one
        ``insert_many(columns, slots)`` call.  Returns the new slots in
        row order.
        """
        self._require_active(txn)
        txn.ensure_writable()
        layout = self.layout
        try:
            columns = [[row[c] for row in rows] for c in range(layout.num_columns)]
        except KeyError as exc:
            raise StorageError(f"insert missing column {exc.args[0]}") from None
        for column in columns:
            check_loggable(column)
        valid, values = zip(*map(self._storable, layout.columns, columns))
        slots: list[TupleSlot] = []
        block = None
        for start in range(0, len(rows), layout.num_slots):
            stop = min(len(rows), start + layout.num_slots)
            block = self.block_store.allocate(layout)
            block.claim_prefix(stop - start)
            for column_id in range(layout.num_columns):
                self._write_column_prefix(
                    block, column_id, valid[column_id], values[column_id], start, stop
                )
            self.adopt_block(block)
            slots.extend(TupleSlot(block.block_id, offset) for offset in range(stop - start))
        if block is not None and block.insert_head < layout.num_slots:
            with self._insert_lock:
                self._insertion_block = block

        redo = txn.redo_buffer
        for slot, row in zip(slots, rows):
            redo.append(RedoRecord(self.name, slot, RedoRecord.INSERT, ProjectedRow(row)))
        for listener in self._write_listeners:
            listener.insert_many(columns, slots)
        return slots

    @staticmethod
    def _storable(spec: ColumnSpec, column: list) -> tuple[np.ndarray | None, Any]:
        """``(validity mask or None when no NULLs, stored values)`` of one
        column for :meth:`place`: encoded bytes for a varlen column, a
        numpy array otherwise; NULLs are stored as ``b""`` or 0."""
        mask = None
        if None in column:
            mask = np.fromiter((v is not None for v in column), bool, len(column))
            column = [(b"" if spec.is_varlen else 0) if v is None else v for v in column]
        if spec.is_varlen:
            return mask, [v.encode("utf-8") if isinstance(v, str) else bytes(v) for v in column]
        return mask, np.array(column, dtype=spec.dtype.numpy_dtype)

    def _write_column_prefix(
        self,
        block: RawBlock,
        column_id: int,
        mask: np.ndarray | None,
        values: Any,
        start: int,
        stop: int,
    ) -> None:
        """Write rows ``[start, stop)`` of one column to slots
        ``[0, stop - start)`` of a fresh block (and widen its zone map)."""
        count = stop - start
        if mask is None:
            bits = block.allocation_bitmap.buffer.data[: (count + 7) // 8]
        else:
            mask = mask[start:stop]
            bits = np.packbits(mask, bitorder="little")
        block.validity_bitmaps[column_id].buffer.data[: len(bits)] = bits
        view = block.column_views[column_id]
        if view is None:
            entries = encode_entries(values[start:stop], block.varlen_heaps[column_id])
            block.varlen_region_view(column_id)[: entries.nbytes] = entries.view(np.uint8)
            return
        chunk = values[start:stop]
        view[:count] = chunk
        if column_id in block.zone_eligible:
            zone = zone_bounds(chunk if mask is None else chunk[mask])
            if zone is not None:
                block.hot_zone_maps[column_id] = list(zone)

    def select(
        self,
        txn: "TransactionContext",
        slot: TupleSlot,
        column_ids: list[int] | None = None,
    ) -> ProjectedRow | None:
        """Read the version of ``slot`` visible to ``txn``.

        Returns ``None`` when the tuple does not exist in the transaction's
        snapshot.  This is the early materialization of Section 3.1: the
        newest version is copied, then invisible delta records are applied
        newest-to-oldest until a visible one is reached.
        """
        self._require_active(txn)
        block = self._block_of(slot)
        if column_ids is None:
            column_ids = self._all_columns
        with block.write_latch:
            present = block.is_allocated(slot.offset)
            chain = block.version_ptrs[slot.offset]
            if not present and chain is None:
                return None
            row = self._read_in_place(block, slot.offset, column_ids)
        record = chain
        while record is not None and not record.is_visible_to(txn):
            present = record.undo_presence(present)
            record.apply_before_image(row)
            record = record.next
        return row if present else None

    def scan(
        self,
        txn: "TransactionContext",
        column_ids: list[int] | None = None,
    ) -> Iterator[tuple[TupleSlot, ProjectedRow]]:
        """Yield every tuple visible to ``txn`` as ``(slot, row)``, in slot order.

        The row view of :class:`~repro.query.scan.TableScanner`.  Frozen
        blocks stay pinned until the iterator is exhausted or closed, so
        writing one from inside the loop waits forever.
        """
        from repro.query.scan import TableScanner

        return TableScanner(None, self, column_ids, txn=txn).rows()

    def add_write_listener(
        self, listener: Any, indexed_columns: set[int] | None = None
    ) -> None:
        """Register a ``listener(txn, slot, kind, new_values, old_values)``
        callable that also takes rows placed in bulk through
        ``listener.insert_many(columns, slots)`` (see :meth:`place`).
        ``indexed_columns`` declares which columns the listener needs old
        values for when tuples are deleted (index key columns)."""
        self._write_listeners.append(listener)
        if indexed_columns:
            self._indexed_columns = sorted(set(self._indexed_columns) | set(indexed_columns))

    # ------------------------------------------------------------------ #
    # physical helpers (shared with rollback, GC, and the transformer)    #
    # ------------------------------------------------------------------ #

    def _block(self, block_id: int) -> RawBlock:
        try:
            return self._blocks_by_id[block_id]
        except KeyError:
            raise StorageError(
                f"block {block_id} does not belong to table {self.name!r}"
            ) from None

    def _block_of(self, slot: TupleSlot) -> RawBlock:
        """The block holding ``slot``, once its offset is known to be in
        range: the plan's per-slot addresses are not bounds-checked."""
        if slot.offset >= self.layout.num_slots:
            raise StorageError(f"{slot} is past the {self.layout.num_slots} slots of a block")
        return self._block(slot.block_id)

    def _allocate_slot(self) -> tuple[RawBlock, int]:
        with self._insert_lock:
            while True:
                if self._insertion_block is not None:
                    offset = self._insertion_block.allocate_slot()
                    if offset is not None:
                        block = self._insertion_block
                        block.touch_hot()
                        return block, offset
                self._insertion_block = self.block_store.allocate(self.layout)
                self.blocks.append(self._insertion_block)
                self._blocks_by_id[self._insertion_block.block_id] = self._insertion_block

    def adopt_block(self, block: RawBlock) -> None:
        """Track a block created externally (used by the transformer when
        compaction recycles blocks within a group)."""
        if block.block_id not in self._blocks_by_id:
            self.blocks.append(block)
            self._blocks_by_id[block.block_id] = block

    def drop_block(self, block: RawBlock) -> None:
        """Stop tracking an empty block and return it to the store."""
        if block is self._insertion_block:
            self._insertion_block = None
        self.blocks.remove(block)
        del self._blocks_by_id[block.block_id]
        self.block_store.release(block)

    def _read_in_place(
        self, block: RawBlock, offset: int, column_ids: Sequence[int]
    ) -> ProjectedRow:
        mem = block.mem
        access = self.layout.access
        byte = offset >> 3
        bit = 1 << (offset & 7)
        values: dict[int, Any] = {}
        for column_id in column_ids:
            kind, validity, column, width, codec = access[column_id]
            if not mem[validity + byte] & bit:
                values[column_id] = None
            elif kind == KIND_FIXED:
                values[column_id] = codec.unpack_from(mem, column + offset * width)[0]
            else:
                gathered = block.gathered.get(column_id)
                raw = decode_entry(
                    mem,
                    column + offset * width,
                    block.varlen_heaps[column_id],
                    None if gathered is None else gathered[1],
                )
                values[column_id] = raw.decode("utf-8") if kind == KIND_UTF8 else raw
        return ProjectedRow(values)

    def _write_in_place(self, block: RawBlock, offset: int, items: Any) -> None:
        mem = block.mem
        access = self.layout.access
        byte = offset >> 3
        bit = 1 << (offset & 7)
        for column_id, value in items:
            kind, validity, column, width, _ = access[column_id]
            if value is None:
                mem[validity + byte] &= ~bit & 0xFF
                if kind != KIND_FIXED:
                    # A NULL entry references no heap bytes: the old value
                    # belongs to the before-image now, and rollback or GC
                    # must not free it a second time through this entry.
                    pos = column + offset * width
                    mem[pos : pos + VARLEN_ENTRY_SIZE] = _NULL_ENTRY
                continue
            mem[validity + byte] |= bit
            if kind != KIND_FIXED:
                encode_entry(
                    mem,
                    column + offset * width,
                    value.encode("utf-8") if isinstance(value, str) else bytes(value),
                    block.varlen_heaps[column_id],
                )
                continue
            block.column_views[column_id][offset] = value  # type: ignore[index]
            # NaN (``value != value``) satisfies no range filter.
            if column_id in block.zone_eligible and value == value:
                zone = block.hot_zone_maps.get(column_id)
                if zone is None:
                    block.hot_zone_maps[column_id] = [value, value]
                elif value < zone[0]:
                    zone[0] = value
                elif value > zone[1]:
                    zone[1] = value

    def _capture_raw_varlen(
        self, block: RawBlock, offset: int, column_ids: list[int]
    ) -> dict[int, bytes]:
        """The raw 16-byte entries of the varlen columns among ``column_ids``."""
        raw: dict[int, bytes] = {}
        for column_id in column_ids:
            kind, _, column, width, _ = self.layout.access[column_id]
            if kind != KIND_FIXED:
                pos = column + offset * width
                raw[column_id] = bytes(block.mem[pos : pos + VARLEN_ENTRY_SIZE])
        return raw

    def _writable(self, txn: "TransactionContext", block: RawBlock, offset: int) -> bool:
        """The write-write conflict rule (first updater wins): the newest
        record that did not abort must be either absent, ours, or committed
        no later than our snapshot.  An aborted record stays at the chain
        head after its rollback, so the rule looks past it: the version
        under it may be a commit newer than our snapshot."""
        head: UndoRecord | None = block.version_ptrs[offset]
        while head is not None and head.aborted:
            head = head.next
        if head is None:
            return True
        if head.txn is txn:
            return True
        from repro.txn.timestamps import is_uncommitted

        if is_uncommitted(head.timestamp):
            return False
        return head.timestamp <= txn.start_ts

    def _require_active(self, txn: "TransactionContext") -> None:
        if not txn.is_active:
            raise StorageError(f"transaction is {txn.state.value}, not active")

    # ------------------------------------------------------------------ #
    # rollback hooks (called by the transaction manager)                  #
    # ------------------------------------------------------------------ #

    def rollback_update(self, record: UpdateUndoRecord) -> None:
        """Restore the before-image of an aborted update, freeing any
        out-of-line values the aborting transaction allocated."""
        block = self._block_of(record.slot)
        offset = record.slot.offset
        mem = block.mem
        byte = offset >> 3
        bit = 1 << (offset & 7)
        with block.write_latch:
            for column_id, value in record.before.items():
                kind, validity, column, width, _ = self.layout.access[column_id]
                if value is None:
                    mem[validity + byte] &= ~bit & 0xFF
                else:
                    mem[validity + byte] |= bit
                if kind != KIND_FIXED:
                    pos = column + offset * width
                    free_entry(mem, pos, block.varlen_heaps[column_id])
                    mem[pos : pos + VARLEN_ENTRY_SIZE] = record.before_raw[column_id]
                elif value is not None:
                    block.column_views[column_id][offset] = value  # type: ignore[index]

    def rollback_insert(self, record: InsertUndoRecord) -> None:
        """Undo an aborted insert: free its varlens, clear its bits."""
        block = self._block_of(record.slot)
        offset = record.slot.offset
        with block.write_latch:
            self._free_varlens(block, offset)
            mem = block.mem
            clear = ~(1 << (offset & 7)) & 0xFF
            for access in self.layout.access:
                mem[access.validity_offset + (offset >> 3)] &= clear
            block.set_allocated(offset, False)

    def rollback_delete(self, record: DeleteUndoRecord) -> None:
        """Undo an aborted delete: restore the allocation bit."""
        block = self._block_of(record.slot)
        with block.write_latch:
            block.set_allocated(record.slot.offset, True)

    def _free_varlens(self, block: RawBlock, offset: int) -> None:
        """Free the heap bytes every non-NULL varlen entry of ``offset``
        owns and mark the entries NULL (under the write latch)."""
        mem = block.mem
        byte = offset >> 3
        bit = 1 << (offset & 7)
        for column_id, heap in block.varlen_heaps.items():
            _, validity, column, width, _ = self.layout.access[column_id]
            if mem[validity + byte] & bit:
                free_entry(mem, column + offset * width, heap)
                mem[validity + byte] &= ~bit & 0xFF

    # ------------------------------------------------------------------ #
    # statistics                                                          #
    # ------------------------------------------------------------------ #

    def live_tuple_count(self) -> int:
        """Physically allocated tuples across all blocks (no snapshots)."""
        return sum(b.allocation_bitmap.count_set() for b in self.blocks)

    def block_states(self) -> dict[BlockState, int]:
        """Histogram of block states, as reported in Figure 10b."""
        histogram = {state: 0 for state in BlockState}
        for block in self.blocks:
            histogram[block.state] += 1
        return histogram

    def _notify(
        self,
        txn: "TransactionContext",
        slot: TupleSlot,
        kind: str,
        new_values: dict | None,
        old_values: dict | None,
    ) -> None:
        for listener in self._write_listeners:
            listener(txn, slot, kind, new_values, old_values)

    def __repr__(self) -> str:
        return f"DataTable(name={self.name!r}, blocks={len(self.blocks)})"


def rowwise_scan(
    table: DataTable,
    txn: "TransactionContext",
    column_ids: list[int] | None = None,
    blocks: list[RawBlock] | None = None,
) -> Iterator[tuple[TupleSlot, ProjectedRow]]:
    """What :meth:`DataTable.scan` yields, for ``blocks`` (default: all),
    read the row engine's way: one latched ``select`` per slot.

    The one per-slot read loop: the row-store baseline of Figs. 1, 12, 13
    and 15 and the oracle the block readers are tested against.
    """
    for block in list(table.blocks) if blocks is None else blocks:
        for offset in range(block.insert_head):
            slot = TupleSlot(block.block_id, offset)
            row = table.select(txn, slot, column_ids)
            if row is not None:
                yield slot, row
