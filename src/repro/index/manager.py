"""Transactional index maintenance and write-amplification accounting.

A :class:`TableIndex` subscribes to its table's write notifications and
keeps the key → TupleSlot mapping current.  Entries are installed eagerly
(so a transaction sees its own writes through the index) with compensation
actions that undo them if the transaction aborts; MVCC visibility filtering
happens at lookup time, when candidate slots are read back through the Data
Table API under the reader's snapshot.

Every maintenance operation increments a counter.  Tuple movements during
compaction trigger a delete + insert per index — the constant-per-movement
write amplification that Figure 13 measures.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterable, Literal, Sequence

from repro.errors import IndexError_
from repro.index.bplus_tree import BPlusTree
from repro.index.hash_index import HashIndex
from repro.storage.projection import ProjectedRow
from repro.storage.tuple_slot import TupleSlot

if TYPE_CHECKING:
    from repro.storage.data_table import DataTable
    from repro.txn.context import TransactionContext


class TableIndex:
    """One index over a table: key columns → tuple slots."""

    def __init__(
        self,
        name: str,
        table: "DataTable",
        key_columns: list[int],
        kind: Literal["bplus", "hash"] = "bplus",
    ) -> None:
        if not key_columns:
            raise IndexError_("an index needs at least one key column")
        num_columns = table.layout.num_columns
        for column_id in key_columns:
            if not 0 <= column_id < num_columns:
                raise IndexError_(f"key column {column_id} out of range")
        self.name = name
        self.table = table
        self.key_columns = list(key_columns)
        self.structure: BPlusTree | HashIndex = (
            BPlusTree() if kind == "bplus" else HashIndex()
        )
        self.kind = kind
        #: Total maintenance operations (inserts + deletes), including those
        #: caused by compaction's tuple movements.
        self.maintenance_ops = 0

    # ------------------------------------------------------------------ #
    # write-path hook                                                     #
    # ------------------------------------------------------------------ #

    def __call__(
        self,
        txn: "TransactionContext",
        slot: TupleSlot,
        kind: str,
        new_values: dict | None,
        old_values: dict | None,
    ) -> None:
        """The table's write-listener entry point."""
        if kind == "insert":
            key = self._key_from(new_values)
            self._add(txn, key, slot)
        elif kind == "delete":
            key = self._key_from(old_values)
            self._remove(txn, key, slot)
        elif kind == "update":
            if not any(c in new_values for c in self.key_columns):
                return
            new_key = self._key_after_update(txn, slot, new_values)
            old_key = tuple(
                old_values[c] if c in old_values else new_key[i]
                for i, c in enumerate(self.key_columns)
            )
            if old_key != new_key:
                self._remove(txn, old_key, slot)
                self._add(txn, new_key, slot)

    def insert_many(
        self, columns: Sequence[Sequence[Any]], slots: Sequence[TupleSlot]
    ) -> None:
        """Index rows placed in bulk: ``columns[c][i]`` is column ``c`` of
        the row at ``slots[i]``.  The structure receives every (key, slot)
        pair in one call (a B+-tree sorts them first).  Nothing is staged
        for abort: placed rows are not versioned either."""
        keys = list(zip(*(columns[c] for c in self.key_columns)))
        self.structure.insert_many(keys, slots)

    def _key_after_update(
        self, txn: "TransactionContext", slot: TupleSlot, delta: dict
    ) -> tuple:
        missing = [c for c in self.key_columns if c not in delta]
        current: dict[int, Any] = dict(delta)
        if missing:
            row = self.table.select(txn, slot, missing)
            if row is not None:
                current.update(row.to_dict())
        return self._key_from(current)

    def _key_from(self, values: dict | None) -> tuple:
        if values is None:
            raise IndexError_(f"index {self.name!r} received no key values")
        try:
            return tuple(values[c] for c in self.key_columns)
        except KeyError as exc:
            raise IndexError_(
                f"index {self.name!r} missing key column {exc.args[0]}"
            ) from None

    def _add(self, txn: "TransactionContext", key: tuple, slot: TupleSlot) -> None:
        self.structure.insert(key, slot)
        self.maintenance_ops += 1
        txn.abort_actions.append(lambda: self.structure.delete(key, slot))

    def _remove(self, txn: "TransactionContext", key: tuple, slot: TupleSlot) -> None:
        self.structure.delete(key, slot)
        self.maintenance_ops += 1
        txn.abort_actions.append(lambda: self.structure.insert(key, slot))

    # ------------------------------------------------------------------ #
    # read path                                                           #
    # ------------------------------------------------------------------ #

    def lookup(
        self,
        txn: "TransactionContext",
        key: tuple,
        column_ids: list[int] | None = None,
    ) -> list[tuple[TupleSlot, ProjectedRow]]:
        """Slots under ``key`` whose tuples are visible to ``txn``."""
        results = []
        for slot in self.structure.search(key):
            row = self.table.select(txn, slot, column_ids)
            if row is not None:
                results.append((slot, row))
        return results

    def range_scan(
        self,
        txn: "TransactionContext",
        low: tuple | None = None,
        high: tuple | None = None,
        column_ids: list[int] | None = None,
    ) -> Iterable[tuple[tuple, TupleSlot, ProjectedRow]]:
        """Ordered (key, slot, row) triples visible to ``txn``."""
        if not isinstance(self.structure, BPlusTree):
            raise IndexError_("range scans require a B+-tree index")
        for key, slot in self.structure.range_scan(low, high):
            row = self.table.select(txn, slot, column_ids)
            if row is not None:
                yield key, slot, row

    def __len__(self) -> int:
        return len(self.structure)


class IndexManager:
    """Creates and tracks the indexes of one database."""

    def __init__(self) -> None:
        self._indexes: dict[str, TableIndex] = {}

    def create_index(
        self,
        name: str,
        table: "DataTable",
        key_columns: list[int],
        kind: Literal["bplus", "hash"] = "bplus",
        backfill_txn: "TransactionContext | None" = None,
    ) -> TableIndex:
        """Create an index and subscribe it to the table's write path.

        ``backfill_txn`` (if given) is used to index tuples already in the
        table; new tables don't need one.
        """
        if name in self._indexes:
            raise IndexError_(f"index {name!r} already exists")
        index = TableIndex(name, table, key_columns, kind)
        table.add_write_listener(index, indexed_columns=set(key_columns))
        if backfill_txn is not None:
            rows = list(table.scan(backfill_txn, list(key_columns)))
            index.insert_many(
                {c: [row.get(c) for _, row in rows] for c in key_columns},
                [slot for slot, _ in rows],
            )
        self._indexes[name] = index
        return index

    def total_maintenance_ops(self) -> int:
        """Sum of maintenance operations across all indexes (Fig. 13)."""
        return sum(i.maintenance_ops for i in self._indexes.values())

    def __contains__(self, name: str) -> bool:
        return name in self._indexes

    def __len__(self) -> int:
        return len(self._indexes)
