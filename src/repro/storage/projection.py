"""Projected rows: partial-tuple reads and writes.

The Data Table API materializes tuple versions *into* the transaction
(Section 3.1); a :class:`ProjectedRow` is that materialization buffer — a
subset of column values keyed by column id, convertible to and from Python
values.  Undo and redo records reuse the same shape for before/after images.
"""

from __future__ import annotations

from typing import Any, Iterator, Mapping

from repro.errors import StorageError


class ProjectedRow:
    """A mutable mapping of column id → value for a subset of columns."""

    __slots__ = ("_values",)

    def __init__(self, values: Mapping[int, Any] | None = None) -> None:
        self._values: dict[int, Any] = dict(values or {})

    @property
    def column_ids(self) -> list[int]:
        """Column ids present, ascending."""
        return sorted(self._values)

    def get(self, column_id: int) -> Any:
        """Value of ``column_id`` (``None`` is a legal value: SQL NULL)."""
        try:
            return self._values[column_id]
        except KeyError:
            raise StorageError(f"column {column_id} not in projection") from None

    def set(self, column_id: int, value: Any) -> None:
        """Set the value for ``column_id``."""
        self._values[column_id] = value

    def __contains__(self, column_id: int) -> bool:
        return column_id in self._values

    def __len__(self) -> int:
        return len(self._values)

    def items(self) -> Iterator[tuple[int, Any]]:
        """(column id, value) pairs in ascending column order."""
        return iter(sorted(self._values.items()))

    def apply_onto(self, other: "ProjectedRow") -> None:
        """Overwrite ``other``'s values with this row's, where present.

        This is how a before-image delta record is applied onto a copied
        tuple during version-chain traversal.
        """
        for column_id, value in self._values.items():
            if column_id in other._values:
                other._values[column_id] = value

    def copy(self) -> "ProjectedRow":
        """Shallow copy."""
        return ProjectedRow(self._values)

    def to_dict(self) -> dict[int, Any]:
        """Plain dict copy of the projection."""
        return dict(self._values)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ProjectedRow):
            return NotImplemented
        return self._values == other._values

    def __repr__(self) -> str:
        return f"ProjectedRow({self._values})"
