"""Phase 2 of the transformation: the varlen gather (Section 4.3).

With exclusive access to a compacted block (state FREEZING), the gather
decodes each variable-length column's entries block at a time
(:func:`repro.storage.varlen.decode_entries`) into one contiguous values
buffer and its Arrow offsets, then repoints every long entry at that buffer
with one vectorized store (the ownership bit flips off); short values stay
inlined for transactional readers.  The replaced out-of-line buffers are
reclaimed through the GC's deferred-action queue so no in-flight reader can
observe freed memory (Section 4.4).

Reads remain safe throughout: the gather only changes the *physical
location* of values, never the logical content, and the entry rewrite is
atomic with respect to readers (an aligned-store argument in the paper; a
latch-protected store here).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, NamedTuple

import numpy as np

from repro.errors import BlockStateError, StorageError
from repro.storage.block import zone_bounds
from repro.storage.constants import VARLEN_INLINE_LIMIT, BlockState
from repro.storage.varlen import ENTRY_DTYPE, decode_entries, owned_entries

if TYPE_CHECKING:
    from repro.storage.block import RawBlock


@dataclass
class GatherStats:
    """What one gather pass did (drives Figure 12's breakdown)."""

    live_tuples: int = 0
    values_bytes: int = 0
    entries_rewritten: int = 0
    heap_entries_reclaimed: int = 0
    null_counts: dict[int, int] = field(default_factory=dict)


def live_prefix_length(block: "RawBlock") -> int:
    """Length of the dense tuple prefix; compaction must have produced one.

    Canonical Arrow forbids gaps, so gathering is only legal on blocks whose
    allocated slots are exactly ``0..n-1``.
    """
    live = block.live_slots()
    n = len(live)
    if n and (live[0] != 0 or live[-1] != n - 1):
        raise StorageError(
            f"block {block.block_id} is not compacted: live slots are not a prefix"
        )
    return n


class DecodedColumn(NamedTuple):
    """One varlen column of a FREEZING block's live prefix, decoded."""

    column_id: int
    entries: np.ndarray  # ENTRY_DTYPE view of the prefix's entries (aliases the block)
    valid: np.ndarray
    offsets: np.ndarray
    values: np.ndarray
    out_of_line: np.ndarray  # valid entries whose value lives outside the entry


def decode_varlen_columns(
    block: "RawBlock", phase: str
) -> tuple[int, list[DecodedColumn], list[tuple[int, int]]]:
    """The prelude the gather and the dictionary variant share: the live
    prefix length, every varlen column decoded before anything is written
    (a corrupt entry raises with the block untouched), and the
    ``(column, heap id)`` pairs to free — every heap value a valid entry
    owns, including those of deleted slots past the prefix, which a cold
    block never reuses, so ``insert_into`` would never free them."""
    if block.state is not BlockState.FREEZING:
        raise BlockStateError(f"{phase} requires FREEZING, block is {block.state.name}")
    n = live_prefix_length(block)
    columns: list[DecodedColumn] = []
    to_free: list[tuple[int, int]] = []
    for column_id in block.layout.varlen_column_ids():
        bits = block.validity_bitmaps[column_id].to_numpy()
        entries = block.varlen_region_view(column_id).view(ENTRY_DTYPE)
        owned = owned_entries(entries, bits)
        heap_ids = entries["pointer"][owned].tolist()  # the prefix's come first
        heap_values = block.varlen_heaps[column_id].get_many(
            heap_ids[: np.count_nonzero(owned[:n])]
        )
        live, valid = entries[:n], bits[:n]
        gathered = block.gathered.get(column_id)
        offsets, values, _ = decode_entries(
            live.view(np.uint8), valid, None if gathered is None else gathered[1], heap_values
        )
        out_of_line = valid & (live["size"] > VARLEN_INLINE_LIMIT)
        columns.append(DecodedColumn(column_id, live, valid, offsets, values, out_of_line))
        to_free.extend((column_id, heap_id) for heap_id in heap_ids)
    return n, columns, to_free


def install_gathered(
    block: "RawBlock",
    column: DecodedColumn,
    offsets: np.ndarray,
    values: np.ndarray,
    targets: np.ndarray,
) -> None:
    """Repoint the column's out-of-line entries at ``targets`` (offsets
    into ``values``; size and prefix are already right) and install
    ``(offsets, values)``, in one write-latch section; the previous buffer
    is dropped only after no entry points into it.  Validity bits past the
    prefix are cleared: this pass frees those slots' heap values, so a
    later ``insert_into`` must not."""
    with block.write_latch:
        column.entries["pointer"][column.out_of_line] = -(targets.astype(np.int64) + 1)
        block.gathered[column.column_id] = (offsets, values)
        validity = block.validity_bitmaps[column.column_id]
        bits = validity.to_numpy()
        bits[len(column.valid) :] = False
        packed = np.packbits(bits, bitorder="little")
        validity.buffer.data[: len(packed)] = packed


def gather_block(
    block: "RawBlock",
    defer: Callable[[Callable[[], None]], None] | None = None,
) -> GatherStats:
    """Gather every varlen column of ``block`` into canonical Arrow buffers.

    ``defer`` receives the memory-reclamation action (freeing replaced heap
    entries); when ``None`` the action runs immediately — only safe when the
    caller knows no concurrent readers exist (single-threaded benchmarks).
    """
    n, columns, to_free = decode_varlen_columns(block, "gather")
    stats = GatherStats(live_tuples=n)
    for column in columns:
        offsets = column.offsets
        targets = offsets[:-1][column.out_of_line]
        install_gathered(block, column, offsets, column.values, targets)
        stats.values_bytes += int(offsets[-1])
        stats.entries_rewritten += int(column.out_of_line.sum())
        stats.null_counts[column.column_id] = n - int(column.valid.sum())
    compute_fixed_metadata(block, n, stats.null_counts)
    stats.heap_entries_reclaimed = reclaim(block, to_free, defer)
    return stats


def compute_fixed_metadata(
    block: "RawBlock", n: int, null_counts: dict[int, int]
) -> None:
    """Null counts and zone maps for fixed-width columns.

    Computed in the same pass as the gather (the paper: "it also computes
    metadata information, such as null count, for Arrow's metadata").
    Shared by the plain gather and the dictionary-compression variant so a
    re-frozen block never carries stale zone maps.
    """
    block.zone_maps.clear()
    # The exact frozen maps supersede the widen-only hot maps; a later
    # FROZEN→HOT transition re-seeds them (RawBlock._seed_hot_zone_maps).
    block.hot_zone_maps.clear()
    for column_id in block.layout.fixed_column_ids():
        valid = block.validity_bitmaps[column_id].to_numpy()[:n]
        null_counts[column_id] = n - int(valid.sum())
        if column_id in block.zone_eligible:
            zone = zone_bounds(block.column_view(column_id)[:n][valid])
            if zone is not None:
                block.zone_maps[column_id] = zone


def reclaim(
    block: "RawBlock",
    to_free: list[tuple[int, int]],
    defer: Callable[[Callable[[], None]], None] | None,
) -> int:
    """Free the ``(column, heap id)`` pairs through ``defer`` (immediately
    when ``None``); returns how many there are."""

    def _reclaim() -> None:
        for column_id, heap_id in to_free:
            block.varlen_heaps[column_id].free(heap_id)

    if to_free:
        if defer is not None:
            defer(_reclaim)
        else:
            _reclaim()
    return len(to_free)
