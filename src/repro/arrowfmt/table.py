"""Record batches and tables: schema-ordered collections of arrays."""

from __future__ import annotations

from typing import Any, Sequence

from repro.arrowfmt.array import Array, total_buffer_bytes
from repro.arrowfmt.datatypes import Schema
from repro.errors import ArrowFormatError


class RecordBatch:
    """A set of equal-length arrays matching a schema.

    In the storage engine every frozen 1 MB block maps to one record batch;
    the export layer ships batches, not whole tables, so that cold blocks
    can move with zero copies while hot blocks are materialized lazily.
    """

    def __init__(self, schema: Schema, columns: Sequence[Array]) -> None:
        if len(schema) != len(columns):
            raise ArrowFormatError(
                f"schema has {len(schema)} fields but {len(columns)} columns given"
            )
        lengths = {len(c) for c in columns}
        if len(lengths) > 1:
            raise ArrowFormatError(f"column lengths differ: {sorted(lengths)}")
        for field, column in zip(schema, columns):
            if column.dtype != field.dtype:
                raise ArrowFormatError(
                    f"column {field.name!r} has type {column.dtype!r}, "
                    f"schema says {field.dtype!r}"
                )
            if not field.nullable and column.null_count:
                raise ArrowFormatError(
                    f"non-nullable column {field.name!r} contains nulls"
                )
        self.schema = schema
        self.columns = list(columns)
        self.num_rows = len(columns[0]) if columns else 0

    def column(self, name: str) -> Array:
        """Look up a column by field name."""
        return self.columns[self.schema.index_of(name)]

    def nbytes(self) -> int:
        """Total physical buffer bytes across all columns."""
        return sum(total_buffer_bytes(c) for c in self.columns)

    def to_pydict(self) -> dict[str, list]:
        """Materialize as ``{column name: list of values}``."""
        return {
            field.name: column.to_pylist()
            for field, column in zip(self.schema, self.columns)
        }

    def __len__(self) -> int:
        return self.num_rows

    def __repr__(self) -> str:
        return f"RecordBatch(rows={self.num_rows}, columns={self.schema.names})"


class Table:
    """An ordered sequence of record batches sharing one schema."""

    def __init__(self, schema: Schema, batches: Sequence[RecordBatch] = ()) -> None:
        for batch in batches:
            if batch.schema != schema:
                raise ArrowFormatError("batch schema does not match table schema")
        self.schema = schema
        self.batches = list(batches)

    @property
    def num_rows(self) -> int:
        """Total rows across batches."""
        return sum(b.num_rows for b in self.batches)

    def column_values(self, name: str) -> list:
        """All values of one column, concatenated across batches."""
        values: list[Any] = []
        for batch in self.batches:
            values.extend(batch.column(name).to_pylist())
        return values

    def to_pydict(self) -> dict[str, list]:
        """Materialize the whole table as a column dict."""
        return {name: self.column_values(name) for name in self.schema.names}

    def __len__(self) -> int:
        return self.num_rows

    def __repr__(self) -> str:
        return (
            f"Table(rows={self.num_rows}, batches={len(self.batches)}, "
            f"columns={self.schema.names})"
        )
