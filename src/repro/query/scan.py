"""Hybrid table scans: in-place over frozen blocks, MVCC over hot ones.

A :class:`TableScanner` yields :class:`ColumnBatch` objects — per-block
column vectors.  For FROZEN blocks the fixed-width vectors are zero-copy
numpy views of the block buffer and varlen columns are lazy
:class:`ArrowColumnView` facades over the gathered Arrow arrays; for hot
blocks the scanner materializes a transactional snapshot *block at a
time* through the export path's kernel
(:func:`repro.transform.arrow_view.materialize_hot`): one write-latch
acquisition bulk-copies the requested columns (plus validity/allocation
bitmaps) and snapshots the version pointers, then version chains are
walked only for the (typically few) slots that have one, overlaying
before-images into the copied arrays.
This turns the O(rows) latched per-tuple loop into O(chained-slots)
patching over numpy bulk operations — the "elide version checking for
cold blocks" fast path of Sections 3.1/4.1, extended so even hot blocks
pay the MVCC tax only on their churned fraction.

Range predicates pushed into the scanner become **selection vectors**:
per-batch numpy index arrays of the rows that satisfy every inclusive
bound (NULLs excluded).  Operators downstream start from the selection
instead of re-masking the absorbed predicates.
"""

from __future__ import annotations

from collections.abc import Sequence
from contextlib import closing
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterator

import numpy as np

from repro.errors import StorageError
from repro.obs import trace
from repro.storage.projection import ProjectedRow
from repro.storage.tuple_slot import TupleSlot
from repro.transform.arrow_view import BlockWalk, frozen_batch, materialize_hot

if TYPE_CHECKING:
    from repro.storage.data_table import DataTable
    from repro.txn.context import TransactionContext
    from repro.txn.manager import TransactionManager

#: Histogram buckets for per-batch selectivity (selected / physical rows).
SELECTIVITY_BUCKETS: tuple[float, ...] = (
    0.001, 0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0,
)


def compute_selection(
    columns: dict[int, Any],
    null_masks: dict[int, np.ndarray],
    range_filters: dict[int, tuple[float | None, float | None]],
    num_rows: int,
) -> np.ndarray:
    """Selection vector of the rows passing every inclusive range bound.

    A row is selected iff every filtered column is non-NULL and within
    ``[low, high]``; filter columns absent from ``columns`` are skipped
    (the caller must re-apply their predicate).
    """
    mask = np.ones(num_rows, dtype=bool)
    for column_id, (low, high) in range_filters.items():
        vector = columns.get(column_id)
        if vector is None:
            continue
        if isinstance(vector, np.ndarray):
            if low is not None:
                mask &= vector >= low
            if high is not None:
                mask &= vector <= high
            nulls = null_masks.get(column_id)
            if nulls is not None:
                mask &= ~nulls
        else:
            mask &= np.fromiter(
                (
                    v is not None
                    and (low is None or v >= low)
                    and (high is None or v <= high)
                    for v in vector
                ),
                dtype=bool,
                count=num_rows,
            )
    return np.flatnonzero(mask)


class ArrowColumnView(Sequence):
    """A lazy list facade over an Arrow array (varlen columns).

    Point lookups go straight to the array (no full decode); the first
    full iteration materializes ``to_pylist()`` once and caches it, so
    legacy callers that expected Python lists keep working while callers
    that never touch the column pay nothing.
    """

    __slots__ = ("array", "_values")

    def __init__(self, array: Any) -> None:
        self.array = array
        self._values: list | None = None

    def _materialize(self) -> list:
        if self._values is None:
            self._values = self.array.to_pylist()
        return self._values

    def __len__(self) -> int:
        return self.array.length

    def __getitem__(self, i):
        if isinstance(i, slice):
            return self._materialize()[i]
        if self._values is not None:
            return self._values[i]
        return self.array[i]

    def __iter__(self) -> Iterator:
        return iter(self._materialize())

    def to_pylist(self) -> list:
        """Materialized copy as a plain Python list."""
        return list(self._materialize())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ArrowColumnView):
            return self._materialize() == other._materialize()
        if isinstance(other, list):
            return self._materialize() == other
        return NotImplemented

    def __repr__(self) -> str:
        return f"ArrowColumnView(length={len(self)}, materialized={self._values is not None})"


@dataclass
class ColumnBatch:
    """One block's worth of column vectors.

    Fixed-width columns are numpy arrays (zero-copy for frozen blocks,
    latched bulk copies for hot ones); varlen columns are
    :class:`ArrowColumnView` sequences (the gathered buffers for frozen
    blocks, freshly gathered ones for hot blocks).
    ``null_masks[column_id]`` is a boolean array marking NULL rows of a
    fixed-width column — the key is absent when the column has no NULLs,
    so ``null_masks.get(cid)`` doubles as a has-nulls test.  ``selection``
    is the scanner's pushed-down selection vector: indices of the rows
    satisfying every inclusive range filter, or ``None`` when no filters
    were pushed (all rows selected).  Row ``i`` is the tuple at offset
    ``slots[i]`` of block ``block_id``; ``slots`` is ``None`` when the rows
    are the block's dense live prefix (a frozen block: row ``i`` is slot
    ``i``), so frozen batches build no offset array.
    """

    columns: dict[int, Any]
    num_rows: int
    from_frozen: bool
    block_id: int
    slots: np.ndarray | None
    selection: np.ndarray | None = None
    null_masks: dict[int, np.ndarray] = field(default_factory=dict)

    def column(self, column_id: int) -> Any:
        """The full (unselected) vector for ``column_id``."""
        try:
            return self.columns[column_id]
        except KeyError:
            raise StorageError(f"column {column_id} not in this scan") from None

    def null_mask(self, column_id: int) -> np.ndarray | None:
        """Boolean NULL mask for a fixed-width column, or ``None``."""
        return self.null_masks.get(column_id)

    @property
    def selected_count(self) -> int:
        """Rows passing the pushed-down range filters."""
        return self.num_rows if self.selection is None else len(self.selection)

    def selection_mask(self) -> np.ndarray | None:
        """The selection as a boolean row mask (``None`` = all rows)."""
        if self.selection is None:
            return None
        mask = np.zeros(self.num_rows, dtype=bool)
        mask[self.selection] = True
        return mask

    def gather(self, column_id: int) -> Any:
        """The vector for ``column_id`` reduced to the selection."""
        vector = self.column(column_id)
        if self.selection is None:
            return vector
        if isinstance(vector, np.ndarray):
            return vector[self.selection]
        return [vector[i] for i in self.selection]

    def pylist(self, column_id: int) -> list:
        """The full vector as a Python list with ``None`` for NULLs."""
        vector = self.column(column_id)
        if isinstance(vector, np.ndarray):
            values = vector.tolist()
            nulls = self.null_masks.get(column_id)
            if nulls is not None:
                values = [None if null else v for v, null in zip(values, nulls)]
            return values
        return list(vector)


class TableScanner:
    """Streams a table as column batches, fast-pathing frozen blocks."""

    def __init__(
        self,
        txn_manager: "TransactionManager | None",
        table: "DataTable",
        column_ids: list[int] | None = None,
        range_filters: dict[int, tuple[float | None, float | None]] | None = None,
        registry=None,
        txn: "TransactionContext | None" = None,
    ) -> None:
        """``range_filters`` maps column id → (low, high) inclusive bounds
        (either side ``None`` for open).  Blocks whose zone maps prove the
        range empty are skipped without being read — frozen blocks through
        the gather-time maps, hot blocks through the incrementally widened
        write-side maps — and surviving batches carry a selection vector of
        the rows inside the bounds.  Strict (``>``/``<``) predicates must
        still be applied by the caller; the pushed bounds are inclusive.

        ``txn`` pins the scan to a caller-owned snapshot (the scanner will
        not commit it; ``txn_manager`` may then be ``None``).  Without one,
        the walk begins a transaction right after pinning, lists the blocks
        again under it and commits it at the end: one snapshot for the scan.

        Pass a :class:`~repro.obs.registry.MetricRegistry` (e.g. ``db.obs``)
        to publish ``query.*`` scan counters."""
        self.txn_manager = txn_manager
        self.table = table
        self.column_ids = (
            column_ids
            if column_ids is not None
            else list(range(table.layout.num_columns))
        )
        self.range_filters = dict(range_filters or {})
        self.txn = txn
        self.frozen_blocks_scanned = 0
        self.hot_blocks_scanned = 0
        self.blocks_pruned = 0
        self.rows_patched = 0
        if registry is not None:
            self._m_pruned = registry.counter(
                "query.blocks_pruned_total", "blocks skipped via zone maps"
            )
            self._m_frozen = registry.counter(
                "query.frozen_blocks_scanned_total", "blocks scanned in place"
            )
            self._m_hot = registry.counter(
                "query.hot_blocks_scanned_total", "blocks scanned through MVCC"
            )
            self._m_patched = registry.counter(
                "query.rows_patched_total",
                "hot-scan slots overlaid with version-chain before-images",
            )
            self._m_selectivity = registry.histogram(
                "query.selection_selectivity",
                "fraction of batch rows passing pushed-down range filters",
                buckets=SELECTIVITY_BUCKETS,
            )
        else:
            self._m_pruned = self._m_frozen = self._m_hot = None
            self._m_patched = self._m_selectivity = None

    def batches(self) -> Iterator[ColumnBatch]:
        """Yield one batch per block that has any visible rows, in order.

        The scan is one :class:`~repro.transform.arrow_view.BlockWalk`:
        every frozen block is pinned up front and stays pinned until the
        iteration is exhausted or closed (frozen batches alias block
        memory), and every hot block is read under one snapshot — the
        caller's ``txn`` if one was supplied — so hot blocks materialized
        early and late see the same committed state.
        """
        walk = BlockWalk(self.txn_manager, lambda: self.table.blocks, self.txn)
        with walk, trace.span("query.scan"):
            for block, frozen in walk:
                if self._pruned_by_zone_map(
                    block.zone_maps if frozen else block.hot_zone_maps
                ):
                    self._count_pruned()
                    continue
                with trace.span("query.scan.frozen" if frozen else "query.scan.hot"):
                    batch = (
                        self._frozen_batch(block)
                        if frozen
                        else self._hot_batch(block, walk.txn)
                    )
                self._apply_selection(batch)
                if frozen:
                    self.frozen_blocks_scanned += 1
                    if self._m_frozen is not None:
                        self._m_frozen.inc()
                else:
                    self.hot_blocks_scanned += 1
                    if self._m_hot is not None:
                        self._m_hot.inc()
                if batch.num_rows:
                    yield batch

    def batch_values(self, batch: ColumnBatch, limit: int | None = None) -> list[list]:
        """The scanned columns of ``batch``, in ``column_ids`` order, as
        Python lists of its selected rows (the first ``limit`` of them when
        given), holding the values ``DataTable.select`` returns: ``None``
        for NULL and ``bool`` for BOOL, which is stored as uint8.  This is
        the one conversion from batches to Python values that row readers
        and the row protocols share; fixed-width columns are selected,
        cut and converted in numpy."""
        rows = slice(limit) if batch.selection is None else batch.selection[:limit]
        columns = self.table.layout.columns
        values = []
        for column_id in self.column_ids:
            vector = batch.column(column_id)
            if not isinstance(vector, np.ndarray):  # a varlen ArrowColumnView
                if isinstance(rows, slice):
                    values.append(vector[rows])
                else:
                    column = vector[:]
                    values.append([column[i] for i in rows.tolist()])
                continue
            vector = vector[rows]
            if columns[column_id].dtype.name == "bool":
                vector = vector.astype(bool)
            nulls = batch.null_masks.get(column_id)
            if nulls is not None:
                vector = vector.astype(object)
                vector[nulls[rows]] = None
            values.append(vector.tolist())
        return values

    def rows(self) -> Iterator[tuple[TupleSlot, ProjectedRow]]:
        """The selected rows of every batch as ``(slot, row)`` pairs, with
        the values ``DataTable.select`` returns (see :meth:`batch_values`)."""
        with closing(self.batches()) as batches:  # closing rows() drops the pins
            for batch in batches:
                values = self.batch_values(batch)
                offsets = np.arange(batch.num_rows) if batch.slots is None else batch.slots
                if batch.selection is not None:
                    offsets = offsets[batch.selection]
                for i, offset in enumerate(offsets.tolist()):
                    row = ProjectedRow(
                        {c: column[i] for c, column in zip(self.column_ids, values)}
                    )
                    yield TupleSlot(batch.block_id, offset), row

    def _count_pruned(self) -> None:
        self.blocks_pruned += 1
        if self._m_pruned is not None:
            self._m_pruned.inc()

    def _pruned_by_zone_map(self, zone_maps) -> bool:
        """Whether a block provably holds no row inside the range filters.

        Works over frozen zone maps (exact over live values at gather time)
        and hot zone maps (widen-only supersets of every value any snapshot
        could see) alike; an absent entry never prunes.
        """
        for column_id, (low, high) in self.range_filters.items():
            zone = zone_maps.get(column_id)
            if zone is None:
                continue
            if low is not None and zone[1] < low:
                return True
            if high is not None and zone[0] > high:
                return True
        return False

    # ------------------------------------------------------------------ #
    # selection vectors                                                   #
    # ------------------------------------------------------------------ #

    def _apply_selection(self, batch: ColumnBatch) -> None:
        """Compute the batch's selection vector from the range filters.

        The selection is *exact* for the inclusive bounds: a row is
        selected iff every filtered column is non-NULL and within
        ``[low, high]``.  Filter columns absent from the scan's projection
        are skipped (conservative: their predicate must be re-applied by
        the caller)."""
        if not self.range_filters or not batch.num_rows:
            return
        with trace.span("query.scan.selection"):
            batch.selection = compute_selection(
                batch.columns, batch.null_masks, self.range_filters, batch.num_rows
            )
        if self._m_selectivity is not None:
            self._m_selectivity.observe(len(batch.selection) / batch.num_rows)

    # ------------------------------------------------------------------ #
    # frozen fast path                                                    #
    # ------------------------------------------------------------------ #

    def _frozen_batch(self, block) -> ColumnBatch:
        record_batch = frozen_batch(block)
        columns: dict[int, Any] = {}
        null_masks: dict[int, np.ndarray] = {}
        n = record_batch.num_rows
        for column_id in self.column_ids:
            spec = self.table.layout.columns[column_id]
            array = record_batch.columns[column_id]
            if not spec.is_varlen:
                columns[column_id] = array.to_numpy()
                if array.null_count:
                    null_masks[column_id] = ~array.validity.to_numpy()[:n]
            else:
                # No to_pylist round trip: the Arrow array aliases the
                # gathered buffers; decoding happens only if somebody asks.
                columns[column_id] = ArrowColumnView(array)
        # A frozen block's rows are its dense live prefix.
        return ColumnBatch(columns, n, True, block.block_id, None, null_masks=null_masks)

    # ------------------------------------------------------------------ #
    # hot path: block-at-a-time MVCC                                      #
    # ------------------------------------------------------------------ #

    def _hot_batch(self, block, txn: "TransactionContext") -> ColumnBatch:
        """Materialize the snapshot of a hot block under one latch
        (:func:`~repro.transform.arrow_view.materialize_hot`, the same
        kernel the exports use): fixed-width columns as numpy arrays,
        varlen columns as :class:`ArrowColumnView` facades."""
        hot = materialize_hot(block, txn, self.column_ids)
        self.rows_patched += hot.rows_patched
        if self._m_patched is not None and hot.rows_patched:
            self._m_patched.inc(hot.rows_patched)
        columns: dict[int, Any] = {
            column_id: (
                hot.fixed[column_id]
                if column_id in hot.fixed
                else ArrowColumnView(hot.varlen[column_id])
            )
            for column_id in self.column_ids
        }
        return ColumnBatch(
            columns, hot.num_rows, False, block.block_id, hot.live, null_masks=hot.null_masks
        )
