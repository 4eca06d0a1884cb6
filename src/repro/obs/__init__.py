"""repro.obs: the engine-wide observability layer.

Five pieces, one principle — statistics collection stays off the
transaction critical path (the paper's Section 4.2 ride-along idea,
generalized):

- :mod:`repro.obs.registry` — named :class:`Counter` / :class:`Gauge` /
  :class:`Histogram` instruments that aggregate in thread-local shards and
  merge only on read,
- :mod:`repro.obs.trace` — nestable ``span("wal.group_commit")`` scopes
  feeding a bounded ring buffer with parent/child time attribution,
- :mod:`repro.obs.expo` — Prometheus text and stable-JSON exposition,
- :mod:`repro.obs.recorder` — the flight recorder: a bounded structured
  event journal with per-transaction causal timelines, a slow-transaction
  log, and Chrome-trace export,
- :mod:`repro.obs.server` — the stdlib HTTP monitoring server behind
  ``db.serve_obs(port)`` (``/metrics``, ``/healthz``, ``/varz``,
  ``/events``, ``/timeline/<txn_id>``, ``/pprof``),
- :mod:`repro.obs.profiler` — a stdlib wall-clock sampling profiler
  (``sys._current_frames()``) rendering collapsed flamegraph stacks.

Quick tour::

    from repro import Database, obs

    db = Database()
    ...                                  # run a workload
    print(obs.render_prometheus(db.obs)) # scrape-ready text
    print(obs.render_json(db.obs))       # stable JSON snapshot
    db.serve_obs(port=8642)              # live HTTP monitoring
    db.timeline(txn_id)                  # causal txn timeline
    obs.render_chrome_trace(db.recorder) # chrome://tracing document
    with obs.span("my.phase"):           # trace a scope
        ...
    obs.configure(enabled=False)         # near-no-op everywhere

Each ``Database`` owns its own :class:`MetricRegistry` (``db.obs``) and
:class:`Recorder` (``db.recorder``) so independent instances never mix
counts or events; ``obs.get_registry()`` / ``obs.get_recorder()`` are the
process defaults for component-less callers.  The naming convention is
``<component>.<event>[_seconds|_bytes|_total]``.
"""

from __future__ import annotations

from repro.obs import trace as trace
from repro.obs.expo import (
    render_json,
    render_openmetrics,
    render_prometheus,
    snapshot,
)
from repro.obs.profiler import SamplingProfiler, render_collapsed
from repro.obs.recorder import (
    Event,
    Recorder,
    get_recorder,
    render_chrome_trace,
)
from repro.obs.registry import (
    DEFAULT_LATENCY_BUCKETS,
    DEFAULT_SIZE_BUCKETS,
    STATE,
    Counter,
    Exemplar,
    Gauge,
    Histogram,
    HistogramSnapshot,
    MetricRegistry,
)
from repro.obs.slo import (
    RequestLifecycle,
    RequestLog,
    SloTracker,
    current_lifecycle,
    current_request_id,
    stamp_phase,
)
from repro.obs.trace import (
    Span,
    SpanSummary,
    TailSampler,
    Tracer,
    current_trace_id,
    get_tracer,
    span,
)

#: Process-default registry for callers without a Database in hand.
_DEFAULT_REGISTRY = MetricRegistry()


def get_registry() -> MetricRegistry:
    """The process-default metric registry."""
    return _DEFAULT_REGISTRY


def configure(
    enabled: bool | None = None,
    exemplars: bool | None = None,
) -> None:
    """Adjust global observability behavior.

    ``enabled=False`` turns every instrument, span, and journal event into
    a near-no-op (one attribute load + branch on the hot path); ``True``
    re-enables.  ``exemplars=True`` lets histograms remember the trace id
    behind the last sample per bucket (surfaced only by the OpenMetrics
    exposition).
    """
    if enabled is not None:
        STATE.enabled = enabled
    if exemplars is not None:
        STATE.exemplars = exemplars


def is_enabled() -> bool:
    """Whether instruments are currently recording."""
    return STATE.enabled


__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "DEFAULT_SIZE_BUCKETS",
    "Counter",
    "Event",
    "Exemplar",
    "Gauge",
    "Histogram",
    "HistogramSnapshot",
    "MetricRegistry",
    "Recorder",
    "RequestLifecycle",
    "RequestLog",
    "SamplingProfiler",
    "SloTracker",
    "Span",
    "SpanSummary",
    "TailSampler",
    "Tracer",
    "configure",
    "current_lifecycle",
    "current_request_id",
    "current_trace_id",
    "get_recorder",
    "get_registry",
    "get_tracer",
    "is_enabled",
    "render_chrome_trace",
    "render_collapsed",
    "render_json",
    "render_openmetrics",
    "render_prometheus",
    "snapshot",
    "span",
    "stamp_phase",
    "trace",
]
