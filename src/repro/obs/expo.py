"""Exposition: Prometheus text format and a stable JSON snapshot.

Both renderers walk a :class:`~repro.obs.registry.MetricRegistry` in
family-sorted order, so output is deterministic and diffable.  Dotted
metric names become underscored in Prometheus (``txn.commit_seconds`` →
``txn_commit_seconds``); histograms expand to the standard
``_bucket{le=...}`` / ``_sum`` / ``_count`` family.

The Prometheus renderer follows the text-format spec (v0.0.4) to the
letter — ``# HELP`` / ``# TYPE`` exactly once per family with HELP first,
all series of a family contiguous under that one block (labeled series,
such as the per-``shard`` gauges of a cluster, are just extra samples of
the family), HELP text and label values
escaped, exactly one terminal ``le="+Inf"`` bucket per series whose value
equals that series' ``_count`` — and ``tests/obs/test_expo.py`` holds a
line-level conformance test against it.  Dotted names that sanitize to an
already-emitted family of a *different* dotted name (possible only through
adversarial naming) are skipped rather than emitting a duplicate family.
"""

from __future__ import annotations

import json
import math
from typing import Any

from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricRegistry,
    label_suffix,
)


def _prom_name(name: str) -> str:
    return name.replace(".", "_")


def _prom_value(value: float) -> str:
    if isinstance(value, float):
        if math.isnan(value):
            return "NaN"
        if math.isinf(value):
            return "+Inf" if value > 0 else "-Inf"
        if value == int(value) and abs(value) < 1e15:
            return str(int(value))
        return repr(value)
    return str(value)


def _prom_bound(bound: float) -> str:
    if math.isinf(bound):
        return "+Inf"
    return format(bound, ".12g")


def _escape_help(text: str) -> str:
    """HELP text per the spec: escape backslash and line feed."""
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _escape_label(value: str) -> str:
    """Label values per the spec: escape backslash, quote, line feed."""
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _label_body(labels: dict[str, str]) -> str:
    """``k1="v1",k2="v2"`` (sorted, escaped) — no braces, composable
    with an extra ``le`` for histogram buckets."""
    return ",".join(
        f'{k}="{_escape_label(v)}"' for k, v in sorted(labels.items())
    )


def _labeled(name: str, labels: dict[str, str]) -> str:
    body = _label_body(labels)
    return f"{name}{{{body}}}" if body else name


def render_prometheus(registry: MetricRegistry) -> str:
    """The registry in Prometheus text exposition format (v0.0.4)."""
    lines: list[str] = []
    emitted: dict[str, str] = {}  # prometheus family -> dotted source name
    for instrument in registry:
        name = _prom_name(instrument.name)
        owner = emitted.get(name)
        if owner is None:
            # First series of the family: one HELP/TYPE block.  Registry
            # iteration is family-contiguous, so every further series of
            # this dotted name lands right below.
            emitted[name] = instrument.name
            if instrument.help:
                lines.append(f"# HELP {name} {_escape_help(instrument.help)}")
            if isinstance(instrument, Counter):
                lines.append(f"# TYPE {name} counter")
            elif isinstance(instrument, Gauge):
                lines.append(f"# TYPE {name} gauge")
            elif isinstance(instrument, Histogram):
                lines.append(f"# TYPE {name} histogram")
        elif owner != instrument.name:
            # Two dotted names sanitized to one family; a second HELP/TYPE
            # block would be malformed, so only the first dotted name wins.
            continue
        labels = instrument.labels
        if isinstance(instrument, (Counter, Gauge)):
            lines.append(
                f"{_labeled(name, labels)} {_prom_value(instrument.value)}"
            )
        elif isinstance(instrument, Histogram):
            snap = instrument.snapshot()
            body = _label_body(labels)
            prefix = body + "," if body else ""
            for bound, cumulative in snap.cumulative():
                lines.append(
                    f'{name}_bucket{{{prefix}le="{_prom_bound(bound)}"}} '
                    f"{cumulative}"
                )
            lines.append(
                f"{_labeled(name + '_sum', labels)} {_prom_value(snap.sum)}"
            )
            lines.append(f"{_labeled(name + '_count', labels)} {snap.count}")
    return "\n".join(lines) + "\n"


#: Content type the OpenMetrics exposition must be served under.
OPENMETRICS_CONTENT_TYPE = (
    "application/openmetrics-text; version=1.0.0; charset=utf-8"
)


def _om_exemplar(exemplar) -> str:
    """The OpenMetrics exemplar suffix: `` # {labels} value timestamp``.

    The label set (a trace id) stays far under the spec's 128-rune cap.
    """
    return (
        f' # {{trace_id="{_escape_label(exemplar.trace_id)}"}} '
        f"{_prom_value(exemplar.value)} {exemplar.timestamp:.3f}"
    )


def render_openmetrics(registry: MetricRegistry) -> str:
    """The registry in OpenMetrics 1.0 text exposition format.

    Differences from the Prometheus v0.0.4 renderer, all spec-mandated:

    - counter *families* drop any ``_total`` suffix while their samples
      always carry one (``wal.flush_total`` → family ``wal_flush``,
      sample ``wal_flush_total``; ``wal.written_bytes`` → family
      ``wal_written_bytes``, sample ``wal_written_bytes_total``);
    - histogram ``_bucket`` samples may carry an exemplar suffix
      (`` # {trace_id="..."} value timestamp``) when one was captured —
      this is how a p99 bucket names a real offending request;
    - the exposition ends with ``# EOF``.

    Serve under :data:`OPENMETRICS_CONTENT_TYPE`.
    """
    lines: list[str] = []
    emitted: dict[str, str] = {}  # OpenMetrics family -> dotted source name
    for instrument in registry:
        name = _prom_name(instrument.name)
        if isinstance(instrument, Counter) and name.endswith("_total"):
            name = name[: -len("_total")]
        owner = emitted.get(name)
        if owner is None:
            emitted[name] = instrument.name
            if isinstance(instrument, Counter):
                lines.append(f"# TYPE {name} counter")
            elif isinstance(instrument, Gauge):
                lines.append(f"# TYPE {name} gauge")
            elif isinstance(instrument, Histogram):
                lines.append(f"# TYPE {name} histogram")
            if instrument.help:
                lines.append(f"# HELP {name} {_escape_help(instrument.help)}")
        elif owner != instrument.name:
            continue
        labels = instrument.labels
        if isinstance(instrument, Counter):
            lines.append(
                f"{_labeled(name + '_total', labels)} "
                f"{_prom_value(instrument.value)}"
            )
        elif isinstance(instrument, Gauge):
            lines.append(
                f"{_labeled(name, labels)} {_prom_value(instrument.value)}"
            )
        elif isinstance(instrument, Histogram):
            snap = instrument.snapshot()
            exemplars = instrument.exemplars()
            body = _label_body(labels)
            prefix = body + "," if body else ""
            for index, (bound, cumulative) in enumerate(snap.cumulative()):
                exemplar = exemplars.get(index)
                suffix = _om_exemplar(exemplar) if exemplar is not None else ""
                lines.append(
                    f'{name}_bucket{{{prefix}le="{_prom_bound(bound)}"}} '
                    f"{cumulative}{suffix}"
                )
            lines.append(
                f"{_labeled(name + '_sum', labels)} {_prom_value(snap.sum)}"
            )
            lines.append(f"{_labeled(name + '_count', labels)} {snap.count}")
    lines.append("# EOF")
    return "\n".join(lines) + "\n"


def snapshot(registry: MetricRegistry) -> dict[str, Any]:
    """A stable, JSON-serializable snapshot of every instrument.

    Shape::

        {"counters": {name: value},
         "gauges": {name: value},
         "histograms": {name: {"buckets": [[le, count], ...],
                               "sum": float, "count": int}}}

    Labeled series are keyed ``name{k="v",...}`` (canonical sorted label
    order); unlabeled series keep their bare name, so pre-label consumers
    see an unchanged shape.  Bucket counts are per-bucket
    (non-cumulative); the final bucket's ``le`` is ``"+Inf"``.
    """
    counters: dict[str, float] = {}
    gauges: dict[str, float] = {}
    histograms: dict[str, Any] = {}
    for instrument in registry:
        key = instrument.name + label_suffix(instrument.labels)
        if isinstance(instrument, Counter):
            counters[key] = instrument.value
        elif isinstance(instrument, Gauge):
            gauges[key] = instrument.value
        elif isinstance(instrument, Histogram):
            snap = instrument.snapshot()
            bounds = [_prom_bound(b) for b in snap.bounds] + ["+Inf"]
            histograms[key] = {
                "buckets": [[le, count] for le, count in zip(bounds, snap.counts)],
                "sum": snap.sum,
                "count": snap.count,
            }
    return {"counters": counters, "gauges": gauges, "histograms": histograms}


def render_json(registry: MetricRegistry, indent: int | None = 2) -> str:
    """:func:`snapshot` serialized with sorted keys (stable across runs)."""
    return json.dumps(snapshot(registry), indent=indent, sort_keys=True)
