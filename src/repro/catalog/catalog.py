"""Table and index definitions.

The catalog owns the name → :class:`~repro.storage.data_table.DataTable`
mapping, computes each table's block layout once at creation (Section 3.2),
and brokers index creation through the :class:`IndexManager`.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Literal

from repro.errors import CatalogError, StorageError
from repro.index.manager import IndexManager, TableIndex
from repro.storage.block_store import BlockStore
from repro.storage.constants import BLOCK_SIZE
from repro.storage.data_table import DataTable
from repro.storage.layout import BlockLayout, ColumnSpec

if TYPE_CHECKING:
    from repro.txn.context import TransactionContext


@dataclass
class TableInfo:
    """Everything the catalog knows about one table.  On a cluster
    ``table`` and ``indexes`` hold the routing facades
    (:mod:`repro.cluster.sharded`) instead of one node's objects."""

    name: str
    table: DataTable
    columns: list[ColumnSpec]
    indexes: dict[str, TableIndex] = field(default_factory=dict)

    def column_id(self, column_name: str) -> int:
        """Position of ``column_name`` among the table's columns."""
        for i, column in enumerate(self.columns):
            if column.name == column_name:
                return i
        raise StorageError(f"no column named {column_name!r}")


class Catalog:
    """The database's table registry."""

    def __init__(self, block_store: BlockStore | None = None) -> None:
        self.block_store = block_store or BlockStore()
        self.index_manager = IndexManager()
        self._tables: dict[str, TableInfo] = {}
        self._lock = threading.Lock()

    def create_table(
        self,
        name: str,
        columns: list[ColumnSpec],
        block_size: int = BLOCK_SIZE,
    ) -> TableInfo:
        """Define a table; its layout is computed once, here."""
        with self._lock:
            if name in self._tables:
                raise CatalogError(f"table {name!r} already exists")
            layout = BlockLayout(columns, block_size=block_size)
            info = TableInfo(name, DataTable(self.block_store, layout, name), list(columns))
            self._tables[name] = info
            return info

    def create_index(
        self,
        table_name: str,
        index_name: str,
        key_column_names: list[str],
        kind: Literal["bplus", "hash"] = "bplus",
        backfill_txn: "TransactionContext | None" = None,
    ) -> TableIndex:
        """Create a named index over a table's key columns."""
        info = self.get(table_name)
        qualified = f"{table_name}.{index_name}"
        key_columns = [info.column_id(c) for c in key_column_names]
        index = self.index_manager.create_index(
            qualified, info.table, key_columns, kind, backfill_txn
        )
        info.indexes[index_name] = index
        return index

    def get(self, name: str) -> TableInfo:
        """Look up a table by name."""
        try:
            return self._tables[name]
        except KeyError:
            raise CatalogError(f"no table named {name!r}") from None

    def table(self, name: str) -> DataTable:
        """Shortcut for ``get(name).table``."""
        return self.get(name).table

    def index(self, table_name: str, index_name: str) -> TableIndex:
        """Look up an index by table and index name."""
        info = self.get(table_name)
        try:
            return info.indexes[index_name]
        except KeyError:
            raise CatalogError(
                f"table {table_name!r} has no index {index_name!r}"
            ) from None

    def table_names(self) -> list[str]:
        """All table names, in creation order."""
        return list(self._tables)

    def data_tables(self) -> dict[str, DataTable]:
        """Name → DataTable mapping (what recovery needs)."""
        return {name: info.table for name, info in self._tables.items()}

    def __contains__(self, name: str) -> bool:
        return name in self._tables

    def __len__(self) -> int:
        return len(self._tables)
