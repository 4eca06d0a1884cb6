"""Benchmark harness: timed runs with before/after metric-registry deltas.

Every benchmark that drives a :class:`~repro.db.Database` can wrap its
measured region in :class:`RegistryDelta` to
report *what the engine did* alongside *how long it took* — commits,
flush batches, blocks frozen, bytes written — straight from the
``repro.obs`` registry instead of hand-collected counters::

    with RegistryDelta(db.obs) as delta:
        workload()
    publish(..., format_deltas(delta.delta))

Counter deltas are exact; histogram deltas report ``_count`` and ``_sum``
changes; gauges are sampled absolute at exit (a gauge "delta" is rarely
meaningful).
"""

from __future__ import annotations

from typing import Any

from repro.bench.reporting import format_table
from repro.obs.expo import snapshot
from repro.obs.registry import MetricRegistry


def flatten_snapshot(snap: dict[str, Any]) -> dict[str, float]:
    """One flat name → number map from an exposition snapshot.

    Histograms contribute ``<name>_count`` and ``<name>_sum``; gauges are
    prefixed ``gauge:`` so delta math can treat them as absolute samples.
    """
    flat: dict[str, float] = {}
    flat.update(snap["counters"])
    for name, value in snap["gauges"].items():
        flat[f"gauge:{name}"] = value
    for name, hist in snap["histograms"].items():
        flat[f"{name}_count"] = hist["count"]
        flat[f"{name}_sum"] = hist["sum"]
    return flat


class RegistryDelta:
    """Context manager capturing a registry snapshot before and after.

    After exit, ``delta`` maps every counter/histogram key that *changed*
    to its increase, and every gauge to its absolute value at exit.
    """

    def __init__(self, registry: MetricRegistry) -> None:
        self.registry = registry
        self.before: dict[str, float] = {}
        self.after: dict[str, float] = {}
        self.delta: dict[str, float] = {}

    def __enter__(self) -> "RegistryDelta":
        self.before = flatten_snapshot(snapshot(self.registry))
        return self

    def __exit__(self, *exc_info) -> None:
        self.after = flatten_snapshot(snapshot(self.registry))
        delta: dict[str, float] = {}
        for key, value in sorted(self.after.items()):
            if key.startswith("gauge:"):
                delta[key] = value
                continue
            change = value - self.before.get(key, 0.0)
            if change:
                delta[key] = change
        self.delta = delta


def format_deltas(delta: dict[str, float], title: str = "metric deltas") -> str:
    """Render a delta map as the monospace table the benchmarks publish.

    Gauge samples keep their ``gauge:`` prefix so readers know they are
    absolute values, not increases.
    """
    rows = [
        (key, f"{value:,.6g}")
        for key, value in sorted(delta.items())
        if value or not key.startswith("gauge:")
    ]
    return format_table(title, ["metric", "delta"], rows)
