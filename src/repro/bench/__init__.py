"""Benchmark support: reporting tables and the metric-delta harness."""

from repro.bench.harness import (
    BenchResult,
    RegistryDelta,
    flatten_snapshot,
    format_deltas,
    run_timed,
)
from repro.bench.reporting import format_series, format_table

__all__ = [
    "BenchResult",
    "RegistryDelta",
    "flatten_snapshot",
    "format_deltas",
    "format_series",
    "format_table",
    "run_timed",
]
