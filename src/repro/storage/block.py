"""1 MB storage blocks with the hot/cold state machine (Sections 3.2, 4.1).

A :class:`RawBlock` owns a single contiguous 1 MB byte buffer laid out PAX
style: an allocation bitmap, then per column a validity bitmap followed by
the column's value region, everything 8-byte aligned.  Fixed-length column
regions are *always* valid Arrow buffers; varlen regions hold relaxed
16-byte entries until the gather phase writes the canonical offsets/values
buffers, which the block keeps alongside.

Transactional metadata stays out of the Arrow-visible buffer: the version
pointer "column" is a parallel object array (a C++ engine would store raw
pointers; Python must hold object references), so external readers of the
buffer never see versioning state — the minimally-intrusive design of
Section 3.1.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.arrowfmt.buffer import Bitmap, Buffer
from repro.errors import BlockStateError, StorageError
from repro.obs.recorder import broadcast as _record_event
from repro.storage.constants import BlockState, VARLEN_ENTRY_SIZE
from repro.storage.layout import BlockLayout
from repro.storage.varlen import VarlenHeap


def zone_bounds(values: np.ndarray) -> tuple[Any, Any] | None:
    """``(min, max)`` of the values a zone map covers, or ``None`` if there
    are none.  NaN satisfies no range filter, so it is left out."""
    if values.dtype.kind == "f":
        values = values[~np.isnan(values)]
    if not len(values):
        return None
    return values.min().item(), values.max().item()


class RawBlock:
    """One block of a table: buffer, bitmaps, state, and version pointers."""

    def __init__(self, layout: BlockLayout, block_id: int) -> None:
        self.layout = layout
        self.block_id = block_id
        self.buffer = Buffer.allocate(layout.block_size)
        #: The buffer as one ``memoryview``: with :attr:`BlockLayout.access`,
        #: every per-slot read and write is a byte index or a ``struct`` call
        #: at a computed offset (Section 3.2).
        self.mem = memoryview(self.buffer.data)
        #: Typed zero-copy view of each fixed-width column region (``None``
        #: for varlen columns), built once; in-place writes assign through
        #: it, so they coerce values exactly as numpy does.
        self.column_views: list[np.ndarray | None] = [
            None
            if spec.is_varlen
            else self.buffer.typed_view(
                spec.dtype.numpy_dtype,  # type: ignore[union-attr]
                layout.column_offsets[column_id],
                layout.num_slots,
            )
            for column_id, spec in enumerate(layout.columns)
        ]
        #: Parallel (Arrow-invisible) version-pointer column: one undo-record
        #: reference per slot, ``None`` when the tuple has no versions.
        self.version_ptrs: list[Any] = [None] * layout.num_slots
        #: Out-of-line varlen storage, one heap per varlen column.
        self.varlen_heaps: dict[int, VarlenHeap] = {
            col: VarlenHeap() for col in layout.varlen_column_ids()
        }
        #: Canonical Arrow data per varlen column, present once the block has
        #: been gathered: ``col -> (offsets ndarray, values ndarray)``.
        self.gathered: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        #: Dictionary-compressed data per varlen column (the alternative
        #: format of Section 4.4): ``col -> (codes ndarray, sorted words)``.
        self.dictionaries: dict[int, tuple[np.ndarray, list[bytes]]] = {}
        #: Zone maps computed during the gather alongside Arrow's metadata:
        #: ``col -> (min, max)`` over live non-null fixed-width values.
        #: Only trustworthy while the block is FROZEN.
        self.zone_maps: dict[int, tuple[float, float]] = {}
        #: Write-side zone maps for scans over non-frozen blocks:
        #: ``col -> [min, max]`` widened on every in-place write (under the
        #: write latch) and never narrowed, so they conservatively cover
        #: every value any snapshot could see — in place *or* on a version
        #: chain (before-images were themselves once written in place).
        #: Seeded from the frozen maps on a FROZEN→HOT transition, cleared
        #: when a gather recomputes the exact frozen maps.
        self.hot_zone_maps: dict[int, list[float]] = {}
        #: Columns eligible for zone maps (numeric fixed-width).
        self.zone_eligible = frozenset(
            column_id
            for column_id in layout.fixed_column_ids()
            if layout.columns[column_id].dtype.numpy_dtype.kind in "iuf"  # type: ignore[union-attr]
        )
        self._state = BlockState.HOT
        self._state_lock = threading.Lock()
        self._reader_count = 0
        self._readers_done = threading.Condition(self._state_lock)
        #: Coarse-grained latch serializing version-chain installation and
        #: in-place writes within this block (stands in for the paper's
        #: atomic compare-and-swap on the version pointer).
        self.write_latch = threading.RLock()
        self._insert_head = 0
        #: GC-epoch timestamp of the last observed modification (Section 4.2).
        self.last_modified_epoch = 0
        #: Logical timestamp of the last transition to FROZEN (0 = never);
        #: drives incremental export ("blocks frozen since cursor X").
        self.frozen_at = 0
        #: ``(frozen_at, RecordBatch)`` built during the FREEZING window
        #: (:func:`repro.transform.arrow_view.frozen_batch`); cleared when a
        #: writer reheats the block.
        self.arrow_batch: tuple[int, Any] | None = None
        self.allocation_bitmap = Bitmap(
            self._region(layout.allocation_bitmap_offset, self._bitmap_nbytes()),
            layout.num_slots,
        )
        self.validity_bitmaps = [
            Bitmap(self._region(off, self._bitmap_nbytes()), layout.num_slots)
            for off in layout.validity_offsets
        ]

    # ------------------------------------------------------------------ #
    # state machine                                                       #
    # ------------------------------------------------------------------ #

    @property
    def state(self) -> BlockState:
        """Current block state (racy read, like the paper's unfenced load)."""
        return self._state

    def compare_and_swap_state(self, expected: BlockState, new: BlockState) -> bool:
        """Atomically transition ``expected -> new``; return success."""
        with self._state_lock:
            if self._state is not expected:
                return False
            self._state = new
            if new is not BlockState.FROZEN:
                # Waking writers blocked on the reader count is harmless.
                self._readers_done.notify_all()
            return True

    def set_state(self, new: BlockState) -> None:
        """Unconditional transition (used by the transformer when it already
        holds exclusive access)."""
        with self._state_lock:
            self._state = new
            self._readers_done.notify_all()

    def begin_frozen_read(self) -> bool:
        """Try to enter the block as an in-place Arrow reader.

        Returns ``False`` when the block is not frozen — the caller must
        materialize through the transaction engine instead (Section 4.1).
        """
        with self._state_lock:
            if self._state is not BlockState.FROZEN:
                return False
            self._reader_count += 1
            return True

    def end_frozen_read(self) -> None:
        """Leave the block; wakes writers spinning on the reader counter."""
        with self._state_lock:
            if self._reader_count <= 0:
                raise BlockStateError("end_frozen_read without matching begin")
            self._reader_count -= 1
            if self._reader_count == 0:
                self._readers_done.notify_all()

    @property
    def reader_count(self) -> int:
        """Number of in-place readers currently inside the block."""
        return self._reader_count

    def wait_for_readers(self, timeout: float | None = None) -> bool:
        """Block until all in-place readers have left (writer-side spin)."""
        with self._state_lock:
            return self._readers_done.wait_for(
                lambda: self._reader_count == 0, timeout=timeout
            )

    def touch_hot(self) -> None:
        """Transition FROZEN/COOLING back to HOT before a transactional write.

        Implements the writer protocol of Section 4.1: flip the status flag
        so future readers materialize, then wait for lingering in-place
        readers to leave.  A COOLING block is preempted directly (Section
        4.3); a FREEZING block makes the writer wait until the gather
        critical section ends.  A HOT block that still has in-place readers
        (another writer flipped it and is waiting for them) makes this
        writer wait too: a frozen-read pin means the buffers do not change.
        """
        while True:
            state = self._state
            if state is BlockState.HOT:
                if self._reader_count:
                    self.wait_for_readers()
                return
            if state is BlockState.FROZEN:
                if self.compare_and_swap_state(BlockState.FROZEN, BlockState.HOT):
                    # The gathered Arrow companions become *stale* (exports
                    # must materialize now) but are kept alive: relaxed
                    # varlen entries may still point into them until the
                    # next gather rewrites every entry.
                    self.arrow_batch = None
                    _record_event(
                        "block.reheated", block_id=self.block_id, from_state="FROZEN"
                    )
                    self._seed_hot_zone_maps()
                    self.wait_for_readers()
                    return
            elif state is BlockState.COOLING:
                if self.compare_and_swap_state(BlockState.COOLING, BlockState.HOT):
                    _record_event(
                        "block.preempted", block_id=self.block_id, from_state="COOLING"
                    )
                    return
            else:  # FREEZING: wait out the short critical section.
                with self._state_lock:
                    self._readers_done.wait_for(
                        lambda: self._state is not BlockState.FREEZING, timeout=1.0
                    )

    def _seed_hot_zone_maps(self) -> None:
        """Fold the (exact) frozen zone maps into the widen-only hot maps
        so a reheated block stays prunable.  Widens under the write latch
        — concurrent writers widen there too, so no update is lost."""
        with self.write_latch:
            for column_id, (low, high) in self.zone_maps.items():
                zone = self.hot_zone_maps.get(column_id)
                if zone is None:
                    self.hot_zone_maps[column_id] = [low, high]
                else:
                    if low < zone[0]:
                        zone[0] = low
                    if high > zone[1]:
                        zone[1] = high

    # ------------------------------------------------------------------ #
    # physical access                                                     #
    # ------------------------------------------------------------------ #

    def column_view(self, column_id: int) -> np.ndarray:
        """Typed zero-copy view over a fixed-width column region."""
        view = self.column_views[column_id]
        if view is None:
            name = self.layout.columns[column_id].name
            raise StorageError(f"column {name!r} is varlen; use varlen views")
        return view

    def varlen_entry_view(self, column_id: int, slot: int) -> np.ndarray:
        """The 16-byte uint8 view of one varlen entry."""
        spec = self.layout.columns[column_id]
        if not spec.is_varlen:
            raise StorageError(f"column {spec.name!r} is not varlen")
        offset = self.layout.attribute_offset(column_id, slot)
        return self.buffer.view(offset, VARLEN_ENTRY_SIZE)

    def varlen_region_view(self, column_id: int) -> np.ndarray:
        """The whole varlen-entry region of a column (16 bytes per slot)."""
        spec = self.layout.columns[column_id]
        if not spec.is_varlen:
            raise StorageError(f"column {spec.name!r} is not varlen")
        return self.buffer.view(
            self.layout.column_offsets[column_id],
            self.layout.num_slots * VARLEN_ENTRY_SIZE,
        )

    # ------------------------------------------------------------------ #
    # slot allocation                                                     #
    # ------------------------------------------------------------------ #

    def allocate_slot(self) -> int | None:
        """Claim the next free slot, or ``None`` when the block is full.

        Insertion only moves forward; deleted slots are *not* reused here —
        the transformation pipeline recycles them during compaction
        (Section 3.3).
        """
        with self.write_latch:
            while self._insert_head < self.layout.num_slots:
                slot = self._insert_head
                self._insert_head += 1
                if not self.is_allocated(slot):
                    self.set_allocated(slot, True)
                    return slot
            return None

    def claim_prefix(self, count: int) -> None:
        """Allocate slots ``[0, count)`` of an empty block at once (bulk
        placement); the allocator continues after them."""
        with self.write_latch:
            if self._insert_head or not 0 <= count <= self.layout.num_slots:
                raise StorageError(f"cannot claim {count} slots of {self!r}")
            self.allocation_bitmap.buffer.data[: (count + 7) // 8] = np.packbits(
                np.ones(count, dtype=bool), bitorder="little"
            )
            self._insert_head = count

    def reset_insert_head(self) -> None:
        """Allow insertion to rescan from slot 0 (after compaction empties
        slots at the front of the block)."""
        with self.write_latch:
            self._insert_head = 0

    def is_allocated(self, slot: int) -> bool:
        """Whether ``slot`` holds a tuple (its allocation bit)."""
        return bool(self.mem[self.layout.allocation_bitmap_offset + (slot >> 3)] & (1 << (slot & 7)))

    def set_allocated(self, slot: int, allocated: bool) -> None:
        """Set or clear the allocation bit of ``slot`` (under the write latch)."""
        pos = self.layout.allocation_bitmap_offset + (slot >> 3)
        if allocated:
            self.mem[pos] |= 1 << (slot & 7)
        else:
            self.mem[pos] &= ~(1 << (slot & 7)) & 0xFF

    @property
    def insert_head(self) -> int:
        """Next slot the allocator will try."""
        return self._insert_head

    def live_slots(self) -> np.ndarray:
        """Indices of allocated slots."""
        return self.allocation_bitmap.set_indices()

    def empty_slot_count(self) -> int:
        """Number of unallocated slots."""
        return self.layout.num_slots - self.allocation_bitmap.count_set()

    def is_empty(self) -> bool:
        """Whether no slot is allocated."""
        return self.allocation_bitmap.count_set() == 0

    def has_active_versions(self) -> bool:
        """Whether any slot still has a version chain — the check the
        transformer runs during the COOLING scan (Section 4.3)."""
        return any(ptr is not None for ptr in self.version_ptrs)

    def _bitmap_nbytes(self) -> int:
        return (self.layout.num_slots + 7) // 8

    def _region(self, offset: int, nbytes: int) -> Buffer:
        return Buffer(self.buffer.view(offset, ((nbytes + 7) // 8) * 8), nbytes)

    def __repr__(self) -> str:
        return (
            f"RawBlock(id={self.block_id}, state={self._state.name}, "
            f"live={self.allocation_bitmap.count_set()}/{self.layout.num_slots})"
        )
