"""A minimal columnar DataFrame: the landing zone of Figure 1's pipeline.

The paper's motivation experiment ends with data "loaded into a Pandas
program".  This module is that destination, self-contained: named columns
of equal length, built from Python rows (the CSV and row-wire paths) or
zero-copy from an exported Arrow table (``from_arrow``), which is all
Figure 1 (``benchmarks/bench_fig01_transform_cost.py``) measures.

It is deliberately not Pandas; it demonstrates that once data is Arrow,
landing it in a dataframe is a thin veneer over the buffers.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

import numpy as np

from repro.errors import ReproError

if TYPE_CHECKING:
    from repro.arrowfmt.table import Table


class FrameError(ReproError):
    """A DataFrame operation was invalid."""


class DataFrame:
    """Named columns of equal length; numeric columns are numpy arrays."""

    def __init__(self, columns: dict[str, Any]) -> None:
        lengths = {len(v) for v in columns.values()}
        if len(lengths) > 1:
            raise FrameError(f"ragged columns: lengths {sorted(lengths)}")
        self._columns: dict[str, Any] = {}
        for name, values in columns.items():
            self._columns[name] = self._coerce(values)
        self.num_rows = lengths.pop() if lengths else 0

    @staticmethod
    def _coerce(values: Any) -> Any:
        if isinstance(values, np.ndarray):
            return values
        values = list(values)
        if values and all(
            isinstance(v, (int, float, np.integer, np.floating))
            and not isinstance(v, bool)
            for v in values
        ):
            return np.array(values)
        return values

    @classmethod
    def from_arrow(cls, table: "Table") -> "DataFrame":
        """Build from an exported Arrow table.

        Null-free fixed-width columns arrive as numpy: zero-copy for a
        single batch, one C-speed concatenate across batches.  Varlen (and
        nullable) columns materialize to Python lists — the same work any
        dataframe library does when leaving the Arrow representation.
        """
        from repro.arrowfmt.array import FixedSizeArray

        columns: dict[str, Any] = {}
        for index, field in enumerate(table.schema):
            arrays = [batch.columns[index] for batch in table.batches]
            all_numeric = arrays and all(
                isinstance(a, FixedSizeArray) and a.null_count == 0 for a in arrays
            )
            if all_numeric:
                if len(arrays) == 1:
                    columns[field.name] = arrays[0].to_numpy()
                else:
                    columns[field.name] = np.concatenate(
                        [a.to_numpy() for a in arrays]
                    )
            else:
                values: list[Any] = []
                for array in arrays:
                    values.extend(array.to_pylist())
                columns[field.name] = values
        return cls(columns)

    def __getitem__(self, name: str) -> Any:
        try:
            return self._columns[name]
        except KeyError:
            raise FrameError(f"no column {name!r}") from None

    def __len__(self) -> int:
        return self.num_rows
