"""Arrow record batches of blocks: zero-copy when frozen, one snapshot copy when hot.

A FROZEN block *is* Arrow data: its fixed-width column regions are valid
Arrow buffers in place, and the gather phase produced canonical offsets and
values buffers for varlen columns.  This module materializes that fact as
:class:`~repro.arrowfmt.table.RecordBatch` objects whose buffers alias the
block's memory — what the export layer ships without serialization.  A
frozen block is immutable until a writer reheats it, so its batch is built
once per freeze (:func:`frozen_batch`) and every pinned reader reuses it.

A HOT block must be read through a transactional snapshot instead
(:func:`materialize_hot`), block at a time: one latched copy, version
chains walked only where they exist, and numpy gathers into fresh
buffers.  Every MVCC block read — Flight and RDMA exports and
``TableScanner`` — goes through it.

Those readers all walk a table the same way, through one
:class:`BlockWalk`: frozen blocks pinned up front and held until the walk
closes, hot blocks read under one snapshot for the whole walk.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

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
from repro.storage.constants import VARLEN_ENTRY_SIZE, BlockState
from repro.storage.layout import BlockLayout
from repro.storage.varlen import ENTRY_DTYPE, decode_entries, owned_entries
from repro.transform.gather import live_prefix_length

if TYPE_CHECKING:
    from collections.abc import Callable, Iterable

    from repro.arrowfmt.table import RecordBatch
    from repro.storage.block import RawBlock
    from repro.txn.context import TransactionContext
    from repro.txn.manager import TransactionManager


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
    """The prefix's validity, aliasing the block: the ``(n + 7) // 8``
    bytes a builder writes, not the whole block's bitmap."""
    bitmap = block.validity_bitmaps[column_id]
    if n and int(bitmap.to_numpy()[:n].sum()) == n:
        return None  # no nulls: Arrow allows omitting the validity buffer
    return Bitmap(Buffer(bitmap.buffer.data, (n + 7) // 8), n)


# ---------------------------------------------------------------------- #
# hot blocks: block-at-a-time snapshot materialization                    #
# ---------------------------------------------------------------------- #


@dataclass
class HotColumns:
    """The rows of one hot block visible to a snapshot, in slot order.

    Fixed-width columns are numpy arrays whose NULL slots are zeroed (the
    bytes a builder writes); ``null_masks`` holds the NULL mask of each
    fixed-width column that has a NULL.  Varlen columns are canonical
    :class:`VarBinaryArray` s over fresh buffers.  ``live`` holds the
    block offset of each row; ``rows_patched`` counts the slots whose
    version chain was walked.
    """

    num_rows: int
    live: np.ndarray
    fixed: dict[int, np.ndarray]
    null_masks: dict[int, np.ndarray]
    varlen: dict[int, VarBinaryArray]
    rows_patched: int


class _VarlenCopy(NamedTuple):
    """What the latched phase copies of one varlen column: the first
    arguments of :func:`~repro.storage.varlen.decode_entries`."""

    region: np.ndarray  # the 16-byte entries of slots [0, n)
    wanted: np.ndarray  # valid and allocated-or-chained: the slots read
    gathered: np.ndarray | None  # the column's gathered values, if any
    heap_values: tuple[bytes, ...]  # out-of-line bytes of wanted slots


def materialize_hot(
    block: "RawBlock", txn: "TransactionContext", column_ids: list[int]
) -> HotColumns:
    """Materialize ``txn``'s snapshot of a hot block, block at a time.

    Phase 1 (one write-latch section): copy the insert head, the
    allocation and validity bitmaps, the version-pointer slice, the
    requested fixed-width columns and each requested varlen column's
    entry region, and fetch the heap bytes of every out-of-line value a
    snapshot could read (slots that are allocated or have a version
    chain) in one call — heap frees race with unlatched reads.  Phase 2
    (unlatched): walk the version chains of the slots that have one,
    overlaying before-images onto the copies — the newest-to-oldest
    traversal ``DataTable.select`` performs.  Phase 3: keep the live
    rows; varlen columns go through
    :func:`~repro.storage.varlen.decode_entries` — offsets are one
    ``cumsum`` and values one numpy gather out of [entry region |
    gathered buffer | heap bytes | before-images].
    """
    layout = block.layout
    fixed_ids = [c for c in column_ids if not layout.columns[c].is_varlen]
    varlen_ids = [c for c in column_ids if layout.columns[c].is_varlen]
    varlen: dict[int, _VarlenCopy] = {}
    with block.write_latch:
        n = block.insert_head
        present = block.allocation_bitmap.to_numpy()[:n]
        ptrs = block.version_ptrs[:n]
        chained = [offset for offset, head in enumerate(ptrs) if head is not None]
        fixed = {c: block.column_view(c)[:n].copy() for c in fixed_ids}
        nulls = {c: ~block.validity_bitmaps[c].to_numpy()[:n] for c in fixed_ids}
        if varlen_ids:
            readable = present.copy()
            readable[chained] = True
            for column_id in varlen_ids:
                varlen[column_id] = _copy_varlen(block, column_id, n, readable)

    overrides: dict[int, dict[int, bytes | None]] = {c: {} for c in varlen_ids}
    for offset in chained:
        alive = bool(present[offset])
        record = ptrs[offset]
        while record is not None and not record.is_visible_to(txn):
            alive = record.undo_presence(alive)
            before = getattr(record, "before", None)
            if before is not None:
                for column_id, value in before.items():
                    if column_id in fixed:
                        if value is None:
                            nulls[column_id][offset] = True
                        else:
                            nulls[column_id][offset] = False
                            fixed[column_id][offset] = value
                    elif column_id in overrides:
                        overrides[column_id][offset] = (
                            value.encode("utf-8") if isinstance(value, str) else value
                        )
            record = record.next
        present[offset] = alive

    live = np.flatnonzero(present)
    live_fixed: dict[int, np.ndarray] = {}
    null_masks: dict[int, np.ndarray] = {}
    for column_id in fixed_ids:
        values = fixed[column_id][live]
        live_nulls = nulls[column_id][live]
        if live_nulls.any():
            values[live_nulls] = np.zeros(1, dtype=values.dtype)
            null_masks[column_id] = live_nulls
        live_fixed[column_id] = values
    arrays: dict[int, VarBinaryArray] = {}
    for column_id in varlen_ids:
        offsets, data, keep = decode_entries(*varlen[column_id], live, overrides[column_id])
        arrays[column_id] = VarBinaryArray(
            layout.columns[column_id].dtype,  # type: ignore[arg-type]
            len(live),
            Buffer.from_numpy(offsets),
            Buffer.from_numpy(data),
            None if keep.all() else Bitmap.from_numpy(keep),
        )
    return HotColumns(len(live), live, live_fixed, null_masks, arrays, len(chained))


def _copy_varlen(
    block: "RawBlock", column_id: int, n: int, readable: np.ndarray
) -> _VarlenCopy:
    """Phase 1 for one varlen column; runs under the block's write latch."""
    region = block.varlen_region_view(column_id)[: n * VARLEN_ENTRY_SIZE].copy()
    wanted = block.validity_bitmaps[column_id].to_numpy()[:n] & readable
    entries = region.view(ENTRY_DTYPE)
    heap_values = block.varlen_heaps[column_id].get_many(
        entries["pointer"][owned_entries(entries, wanted)].tolist()
    )
    gathered = block.gathered.get(column_id)
    return _VarlenCopy(
        region, wanted, gathered[1] if gathered is not None else None, heap_values
    )


def hot_batch(block: "RawBlock", txn: "TransactionContext") -> "RecordBatch":
    """A hot block's rows under ``txn``'s snapshot as a record batch.

    Byte for byte the batch :func:`rows_to_record_batch` builds from the
    same snapshot's rows: NULL fixed slots are zero and a column with no
    NULLs has no validity buffer."""
    from repro.arrowfmt.table import RecordBatch

    layout = block.layout
    hot = materialize_hot(block, txn, list(range(layout.num_columns)))
    columns: list[Array] = []
    for column_id, spec in enumerate(layout.columns):
        if spec.is_varlen:
            columns.append(hot.varlen[column_id])
            continue
        nulls = hot.null_masks.get(column_id)
        columns.append(
            FixedSizeArray(
                spec.dtype,  # type: ignore[arg-type]
                hot.num_rows,
                Buffer.from_numpy(hot.fixed[column_id]),
                None if nulls is None else Bitmap.from_numpy(~nulls),
            )
        )
    return RecordBatch(table_schema(layout), columns)


# ---------------------------------------------------------------------- #
# the block walk every table reader shares                                #
# ---------------------------------------------------------------------- #


class BlockWalk:
    """One in-order pass over a table's blocks: the only table-level pin site.

    ``blocks`` returns the blocks to read, in order (``lambda:
    table.blocks`` for a whole table).  Opening the walk lists them and
    pins every block whose ``begin_frozen_read()`` succeeds.  Iterating
    yields ``(block, frozen)`` in order: a frozen block is read in place,
    a hot one under :attr:`txn`.

    :attr:`txn` is the caller's transaction or, when any listed block is
    hot, one the walk begins right after pinning and commits on close.  A
    walk that begins its own lists ``blocks()`` again under it and reads
    every block appended since the first listing as hot, so a transaction
    that committed in between is seen whole: its update to a listed hot
    block and its insert into a new block alike.  An all-frozen walk
    begins none — no writer can change a block under its pins.

    Every pin is held until :meth:`close` (or the end of the ``with``
    block): frozen batches alias block memory, and the pin is what keeps a
    writer from reheating and rewriting a block a consumer still reads.
    Writers to a pinned block wait until then, so a thread that writes the
    table from inside its own walk waits forever.
    """

    __slots__ = ("txn_manager", "_plan", "_pinned", "txn", "_owns_txn")

    def __init__(
        self,
        txn_manager: "TransactionManager",
        blocks: "Callable[[], Iterable[RawBlock]]",
        txn: "TransactionContext | None" = None,
    ) -> None:
        self.txn_manager = txn_manager
        self._plan = [(block, block.begin_frozen_read()) for block in list(blocks())]
        self._pinned: list["RawBlock"] = [
            block for block, pinned in self._plan if pinned
        ]
        self._owns_txn = txn is None and len(self._pinned) < len(self._plan)
        if self._owns_txn:
            txn = txn_manager.begin()
            listed = {id(block) for block, _ in self._plan}
            self._plan += [
                (block, False) for block in list(blocks()) if id(block) not in listed
            ]
        #: The snapshot every hot block of the walk is read under.
        self.txn = txn

    def __iter__(self):
        return iter(self._plan)

    def batch(self, block: "RawBlock", frozen: bool) -> "RecordBatch":
        """``block``'s record batch: the per-freeze batch when pinned, the
        walk snapshot's rows otherwise."""
        return frozen_batch(block) if frozen else hot_batch(block, self.txn)

    def close(self) -> None:
        """Release every pin and commit the walk's own transaction."""
        pinned, self._pinned = self._pinned, []
        for block in pinned:
            block.end_frozen_read()
        if self._owns_txn:
            self._owns_txn = False
            self.txn_manager.commit(self.txn)

    def __enter__(self) -> "BlockWalk":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
