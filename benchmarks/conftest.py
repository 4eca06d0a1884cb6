"""Shared infrastructure for the figure-reproduction benchmarks.

Every benchmark prints the series its paper figure plots (visible with
``pytest benchmarks/ --benchmark-only -s``) and appends it to
``benchmarks/results/`` so EXPERIMENTS.md can quote it.  Scale knobs stay
small enough for a pure-Python engine; set ``REPRO_BENCH_SCALE`` (a float
multiplier) to enlarge the workloads.
"""

from __future__ import annotations

import os
import pathlib

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def pytest_addoption(parser):
    parser.addoption(
        "--shards",
        default="1,2,4",
        help="comma-separated shard counts for the sharded OLTP benchmark "
        "(bench_fig10_oltp.py); 1 uses the plain single-node engine",
    )


def shard_counts(config) -> list[int]:
    """The ``--shards`` option parsed into a list of shard counts."""
    return [int(n) for n in str(config.getoption("--shards")).split(",") if n]


#: Global workload multiplier.
SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))


def scaled(n: int, minimum: int = 1) -> int:
    """Scale an iteration/row count by REPRO_BENCH_SCALE."""
    return max(minimum, int(n * SCALE))


def publish(name: str, text: str) -> None:
    """Print a figure's series and persist it under benchmarks/results/."""
    print("\n" + text)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")


def publish_deltas(name: str, delta: dict, title: str | None = None) -> None:
    """Publish a ``repro.bench.harness.RegistryDelta`` delta map so a
    benchmark's timings land next to the engine work they caused."""
    from repro.bench.harness import format_deltas

    publish(name, format_deltas(delta, title or f"{name} — metric deltas"))
