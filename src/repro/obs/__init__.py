"""repro.obs: the engine-wide observability layer.

Seven pieces, one principle — statistics collection stays off the
transaction critical path (the paper's Section 4.2 ride-along idea,
generalized):

- :mod:`repro.obs.registry` — named :class:`Counter` / :class:`Gauge` /
  :class:`Histogram` instruments that aggregate in thread-local shards and
  merge only on read,
- :mod:`repro.obs.recorder` — the flight recorder: the one bounded
  journal.  Its ring holds events, finished trace spans and completed
  service requests, evicts oldest-first whatever the kind and counts
  every eviction in ``obs.events_dropped_total``; per-transaction causal
  timelines, slow-transaction captures and the Chrome-trace export are
  views of it,
- :mod:`repro.obs.trace` — nestable ``span("wal.group_commit", recorder)``
  scopes with parent/child time attribution, journaled as records,
- :mod:`repro.obs.slo` — per-request critical-path attribution and
  per-tenant SLO burn rates,
- :mod:`repro.obs.expo` — Prometheus text and stable-JSON exposition,
- :mod:`repro.obs.server` — the stdlib HTTP monitoring server behind
  ``db.serve_obs(port)`` (``/metrics``, ``/healthz``, ``/varz``,
  ``/events``, ``/timeline/<txn_id>``, ``/trace``, ``/request/<id>``,
  ``/slo``, ``/pprof``),
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
    with obs.span("my.phase", db.recorder):
        ...                              # a span journaled in db.recorder
    obs.configure(enabled=False)         # near-no-op everywhere

Each ``Database`` owns its own :class:`MetricRegistry` (``db.obs``) and
:class:`Recorder` (``db.recorder``) so independent instances never mix
counts, events or spans; ``obs.get_registry()`` / ``obs.get_recorder()``
are the process defaults for component-less callers.  The naming
convention is ``<component>.<event>[_seconds|_bytes|_total]``.
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
    SloTracker,
    current_lifecycle,
    current_request_id,
    stamp_phase,
)
from repro.obs.trace import Span, current_trace_id, span

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
    "SamplingProfiler",
    "SloTracker",
    "Span",
    "configure",
    "current_lifecycle",
    "current_request_id",
    "current_trace_id",
    "get_recorder",
    "get_registry",
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
