"""Benchmark support: reporting tables and the metric-delta harness."""

from repro.bench.harness import (
    RegistryDelta,
    flatten_snapshot,
    format_deltas,
)
from repro.bench.reporting import format_series, format_table

__all__ = [
    "RegistryDelta",
    "flatten_snapshot",
    "format_deltas",
    "format_series",
    "format_table",
]
