"""A small fluent query API over the vectorized scan layer.

The adoption-friendly face of in-engine analytics::

    from repro.query import Query

    total = (
        Query(db, "sales")
        .where("region", "==", 3)
        .where("amount", ">", 100.0)
        .sum("amount")
    )
    by_region = Query(db, "sales").group_by("region").sum("amount")

Predicates on numeric columns automatically feed the zone-map pruner, so
range-selective queries skip frozen blocks without reading them.
"""

from __future__ import annotations

import operator
from contextlib import closing
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.errors import StorageError
from repro.query.ops import AggregateResult, filter_mask
from repro.query.scan import ColumnBatch, TableScanner

if TYPE_CHECKING:
    from repro.db import Database

_OPS = {
    "==": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


class Query:
    """An immutable-ish builder; terminal methods execute the scan."""

    def __init__(self, db: "Database", table_name: str) -> None:
        self._db = db
        self._info = db.catalog.get(table_name)
        self._filters: list[tuple[int, str, Any]] = []
        self._group_key: int | None = None

    # ------------------------------------------------------------------ #
    # building                                                            #
    # ------------------------------------------------------------------ #

    def where(self, column: str, op: str, value: Any) -> "Query":
        """Add a conjunctive predicate ``column <op> value``."""
        if op not in _OPS:
            raise StorageError(f"unsupported operator {op!r}; use one of {sorted(_OPS)}")
        self._filters.append((self._info.column_id(column), op, value))
        return self

    def where_between(self, column: str, low: Any, high: Any) -> "Query":
        """Inclusive range predicate (drives zone-map pruning)."""
        return self.where(column, ">=", low).where(column, "<=", high)

    def group_by(self, column: str) -> "Query":
        """Group terminal aggregates by ``column``."""
        self._group_key = self._info.column_id(column)
        return self

    # ------------------------------------------------------------------ #
    # execution                                                           #
    # ------------------------------------------------------------------ #

    def _range_filters(self) -> dict[int, tuple[float | None, float | None]]:
        bounds: dict[int, list[float | None]] = {}
        for column_id, op, value in self._filters:
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                continue
            low, high = bounds.setdefault(column_id, [None, None])
            if op in (">", ">="):
                bounds[column_id][0] = value if low is None else max(low, value)
            elif op in ("<", "<="):
                bounds[column_id][1] = value if high is None else min(high, value)
            elif op == "==":
                bounds[column_id] = [value, value]
        return {c: (lo, hi) for c, (lo, hi) in bounds.items() if lo is not None or hi is not None}

    def _residual_filters(self) -> list[tuple[int, str, Any]]:
        """Predicates the scanner's selection vector does *not* fully
        absorb.  The pushed bounds are inclusive and NULL-excluding, so a
        ``>=``/``<=``/``==`` predicate implied by the final merged bounds
        needs no re-masking; strict (``>``/``<``), ``!=``, and non-numeric
        predicates are re-applied over the selected rows."""
        bounds = self._range_filters()
        residual: list[tuple[int, str, Any]] = []
        for column_id, op, value in self._filters:
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                low, high = bounds.get(column_id, (None, None))
                if op == ">=" and low is not None and low >= value:
                    continue
                if op == "<=" and high is not None and high <= value:
                    continue
                if op == "==" and low == value and high == value:
                    continue
            residual.append((column_id, op, value))
        return residual

    def _scanner(self, value_columns: list[int]) -> TableScanner:
        needed = sorted(
            set(value_columns)
            | {c for c, _, _ in self._filters}
            | ({self._group_key} if self._group_key is not None else set())
        )
        return TableScanner(
            self._db.txn_manager,
            self._info.table,
            column_ids=needed,
            range_filters=self._range_filters(),
            registry=getattr(self._db, "obs", None),
        )

    def _mask(self, batch: ColumnBatch) -> np.ndarray:
        """Rows passing every predicate: the scanner's selection vector
        (which already enforces the absorbed range bounds) AND the
        residual predicates re-masked here."""
        mask = batch.selection_mask()
        mask = np.ones(batch.num_rows, dtype=bool) if mask is None else mask
        for column_id, op, value in self._residual_filters():
            fn = _OPS[op]
            mask = mask & filter_mask(
                batch, column_id, lambda v, fn=fn, value=value: fn(v, value)
            )
        return mask

    def _iter_filtered(self, value_column: int):
        scanner = self._scanner([value_column])
        for batch in scanner.batches():
            mask = self._mask(batch)
            vector = batch.column(value_column)
            if isinstance(vector, np.ndarray):
                nulls = batch.null_masks.get(value_column)
                keep = mask if nulls is None else mask & ~nulls
                yield batch, mask, vector[keep]
            else:
                yield batch, mask, [v for v, keep in zip(vector, mask) if keep]

    def _aggregate(self, column: str) -> "AggregateResult | dict[Any, AggregateResult]":
        value_column = self._info.column_id(column)
        if self._group_key is None:
            result = AggregateResult()
            for _, _, values in self._iter_filtered(value_column):
                result.update(values)
            return result
        groups: dict[Any, AggregateResult] = {}
        for batch, mask, _ in self._iter_filtered(value_column):
            keys_list = batch.pylist(self._group_key)
            values_list = batch.pylist(value_column)
            for key, value, keep in zip(keys_list, values_list, mask):
                if keep and value is not None:
                    groups.setdefault(key, AggregateResult()).update([value])
        return groups

    # terminal methods -------------------------------------------------- #

    def explain(self) -> dict[str, Any]:
        """Execute the scan and report where the work went.

        Returns blocks scanned in place / materialized / zone-map pruned,
        rows examined, and rows matching the predicates — the numbers that
        show whether pruning and the frozen fast path are engaging.
        """
        scanner = self._scanner([])
        rows_examined = 0
        rows_matched = 0
        for batch in scanner.batches():
            rows_examined += batch.num_rows
            rows_matched += int(self._mask(batch).sum())
        return {
            "blocks_in_place": scanner.frozen_blocks_scanned,
            "blocks_materialized": scanner.hot_blocks_scanned,
            "blocks_pruned": scanner.blocks_pruned,
            "rows_examined": rows_examined,
            "rows_matched": rows_matched,
            "range_filters": self._range_filters(),
        }

    def count(self) -> "int | dict[Any, int]":
        """Number of rows matching the predicates."""
        if self._group_key is None:
            total = 0
            scanner = self._scanner([])
            for batch in scanner.batches():
                total += int(self._mask(batch).sum())
            return total
        key_name = self._info.table.layout.columns[self._group_key].name
        grouped = self.group_by(key_name)._aggregate(key_name)
        return {key: r.count for key, r in grouped.items()}

    def sum(self, column: str) -> "float | dict[Any, float]":
        """SUM(column), grouped if ``group_by`` was set."""
        result = self._aggregate(column)
        if isinstance(result, dict):
            return {key: r.total for key, r in result.items()}
        return result.total

    def avg(self, column: str) -> "float | None | dict[Any, float | None]":
        """AVG(column), grouped if ``group_by`` was set."""
        result = self._aggregate(column)
        if isinstance(result, dict):
            return {key: r.mean for key, r in result.items()}
        return result.mean

    def min(self, column: str):
        """MIN(column)."""
        result = self._aggregate(column)
        if isinstance(result, dict):
            return {key: r.minimum for key, r in result.items()}
        return result.minimum

    def max(self, column: str):
        """MAX(column)."""
        result = self._aggregate(column)
        if isinstance(result, dict):
            return {key: r.maximum for key, r in result.items()}
        return result.maximum

    def to_rows(self, limit: int | None = None) -> list[dict[str, Any]]:
        """Materialize matching rows as name-keyed dicts, with the values
        ``select`` returns (``TableScanner.batch_values``)."""
        names = [c.name for c in self._info.table.layout.columns]
        scanner = TableScanner(
            self._db.txn_manager,
            self._info.table,
            column_ids=list(range(len(names))),
            range_filters=self._range_filters(),
            registry=getattr(self._db, "obs", None),
        )
        rows: list[dict[str, Any]] = []
        with closing(scanner.batches()) as batches:
            for batch in batches:
                batch.selection = np.flatnonzero(self._mask(batch))
                remaining = None if limit is None else limit - len(rows)
                values = scanner.batch_values(batch, remaining)
                rows.extend(dict(zip(names, row)) for row in zip(*values))
                if limit is not None and len(rows) >= limit:
                    break
        return rows
