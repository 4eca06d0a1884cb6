"""Vectorized analytical reads over Arrow-native storage.

The payoff of storing data in Arrow: analytical operators run directly on
the block buffers with numpy-speed vectorized execution, no export step at
all.  Frozen blocks are scanned in place under the reader counter; hot
blocks fall back to transactional materialization — the same hot/cold split
the export layer uses (Section 4.1: "the DBMS can ignore checking the
version column for every tuple and scan large portions of the database
in-place").
"""

from repro.query.scan import ArrowColumnView, ColumnBatch, TableScanner
from repro.query.ops import (
    AggregateResult,
    aggregate,
    filter_mask,
    filter_masks,
    group_by_aggregate,
)

__all__ = [
    "AggregateResult",
    "ArrowColumnView",
    "ColumnBatch",
    "TableScanner",
    "aggregate",
    "filter_mask",
    "filter_masks",
    "group_by_aggregate",
]
