"""Metric primitives: sharded counters, gauges, fixed-bucket histograms.

The design goal is the same ride-along principle the access observer uses
(Section 4.2): *nothing on the transaction critical path may pay for
statistics collection*.  Every :class:`Counter` and :class:`Histogram`
therefore aggregates into **thread-local shards** — the hot-path increment
is one bounds-free list-cell add with no dict lookup and no lock — and the
shards are merged only when somebody *reads* the metric (a dashboard pull,
a ``Database.metrics()`` call, a Prometheus scrape).  Readers are rare and
slow; writers are constant and must be free.

A process-wide switch (:data:`STATE`, flipped by ``obs.configure``) turns
recording off entirely; the disabled path is a single attribute load and a
branch, measured by ``benchmarks/bench_ablation_obs_overhead.py``.

Naming convention (enforced): ``<component>.<event>[_seconds|_bytes|_total]``
— e.g. ``txn.commit_seconds``, ``wal.written_bytes``, ``gc.pass_total``.
Dots become underscores in the Prometheus exposition.

Instruments may carry **labels** (``registry.gauge("cluster.shard_healthy",
labels={"shard": "0"})``): each distinct label set is its own series
with its own shards, all series of a name form one *family* (same kind,
same exposition HELP/TYPE block), and the registry keys series by
``name + canonical-label-suffix`` so unlabeled lookups are untouched.
This is how per-shard telemetry stays attributable without inventing
per-shard names.
"""

from __future__ import annotations

import math
import re
import threading
import time
from bisect import bisect_left
from typing import Any, Callable, Iterator, Mapping, NamedTuple, Sequence


class _ObsState:
    """The process-wide enable switch, shared by every instrument."""

    __slots__ = ("enabled", "exemplars")

    def __init__(self) -> None:
        self.enabled = True
        # Exemplar capture (histograms remembering the trace id behind the
        # last sample per bucket) is opt-in: flip via
        # ``obs.configure(exemplars=True)`` or the service config.
        self.exemplars = False


#: Checked by every hot-path record call; flip via ``obs.configure``.
STATE = _ObsState()

_NAME_RE = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z0-9_]+)*$")
_LABEL_NAME_RE = re.compile(r"^[a-z_][a-z0-9_]*$")

#: Latency buckets in seconds: 1 µs → 10 s, roughly logarithmic.
DEFAULT_LATENCY_BUCKETS: tuple[float, ...] = (
    1e-6, 5e-6, 1e-5, 5e-5, 1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3,
    1e-2, 2.5e-2, 5e-2, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

#: Size/count buckets: batch sizes, queue depths, byte counts.
DEFAULT_SIZE_BUCKETS: tuple[float, ...] = (
    1, 2, 5, 10, 25, 50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000,
    100_000, 1_000_000, 10_000_000,
)


def _check_name(name: str) -> str:
    if not _NAME_RE.match(name):
        raise ValueError(
            f"invalid metric name {name!r}; use <component>.<event> with "
            "lowercase letters, digits, and underscores"
        )
    return name


def _check_labels(labels: Mapping[str, Any] | None) -> dict[str, str]:
    """Normalise ``labels`` to a plain ``{str: str}`` dict (sorted keys)."""
    if not labels:
        return {}
    out: dict[str, str] = {}
    for key in sorted(labels):
        if not _LABEL_NAME_RE.match(str(key)):
            raise ValueError(
                f"invalid label name {key!r}; use lowercase letters, "
                "digits, and underscores"
            )
        out[str(key)] = str(labels[key])
    return out


def label_suffix(labels: Mapping[str, str] | None) -> str:
    """Canonical series suffix: ``{k="v",...}`` with sorted keys, or ``""``.

    Used as part of the registry key and in JSON snapshots; the Prometheus
    exposition rebuilds (and escapes) its own label string from the dict.
    """
    if not labels:
        return ""
    parts = ",".join(f'{k}="{v}"' for k, v in sorted(labels.items()))
    return "{" + parts + "}"


class Counter:
    """A monotonically increasing count, sharded per thread.

    Each thread owns a one-slot list cell registered in ``_shards``; the
    increment is ``cell[0] += amount`` — no dict hop, no lock.  Cells of
    finished threads stay registered (counters are cumulative, so their
    contribution remains correct forever).
    """

    __slots__ = ("name", "help", "labels", "_local", "_shards", "_lock")

    def __init__(
        self, name: str, help: str = "",
        labels: Mapping[str, str] | None = None,
    ) -> None:
        self.name = _check_name(name)
        self.help = help
        self.labels = _check_labels(labels)
        self._local = threading.local()
        self._shards: list[list[float]] = []
        self._lock = threading.Lock()

    def inc(self, amount: float = 1) -> None:
        """Add ``amount`` (hot path: one cell add when enabled)."""
        if not STATE.enabled:
            return
        try:
            self._local.cell[0] += amount
        except AttributeError:
            cell = [amount]
            with self._lock:
                self._shards.append(cell)
            self._local.cell = cell

    @property
    def value(self) -> float:
        """Merged total across every thread that ever incremented."""
        with self._lock:
            return sum(cell[0] for cell in self._shards)

    def reset(self) -> None:
        """Zero all shards (checkpoint truncation, test isolation)."""
        with self._lock:
            for cell in self._shards:
                cell[0] = 0


class Gauge:
    """A point-in-time value: either set explicitly or computed on read.

    Callback gauges (``callback=lambda: ...``) evaluate at read time, so
    they track live engine state (active transactions, queue depth) with
    zero write-path cost.
    """

    __slots__ = ("name", "help", "labels", "callback", "_value")

    def __init__(
        self, name: str, help: str = "",
        callback: Callable[[], float] | None = None,
        labels: Mapping[str, str] | None = None,
    ) -> None:
        self.name = _check_name(name)
        self.help = help
        self.labels = _check_labels(labels)
        self.callback = callback
        self._value = 0.0

    def set(self, value: float) -> None:
        if not STATE.enabled:
            return
        self._value = value

    def inc(self, amount: float = 1) -> None:
        if not STATE.enabled:
            return
        self._value += amount

    def dec(self, amount: float = 1) -> None:
        self.inc(-amount)

    @property
    def value(self) -> float:
        if self.callback is not None:
            return self.callback()
        return self._value


class _HistogramShard:
    __slots__ = ("counts", "total")

    def __init__(self, num_buckets: int) -> None:
        self.counts = [0] * num_buckets
        self.total = 0.0


class HistogramSnapshot:
    """A merged, immutable read of one histogram."""

    __slots__ = ("bounds", "counts", "sum", "count")

    def __init__(self, bounds: tuple[float, ...], counts: list[int], total: float) -> None:
        self.bounds = bounds  # upper bound per bucket; final bucket is +Inf
        self.counts = counts  # per-bucket (non-cumulative), len(bounds) + 1
        self.sum = total
        self.count = sum(counts)

    def cumulative(self) -> list[tuple[float, int]]:
        """Prometheus-style ``(le, cumulative count)`` pairs incl. +Inf."""
        out: list[tuple[float, int]] = []
        running = 0
        for bound, count in zip(self.bounds, self.counts):
            running += count
            out.append((bound, running))
        out.append((float("inf"), running + self.counts[-1]))
        return out

    @property
    def mean(self) -> float | None:
        return self.sum / self.count if self.count else None


class Exemplar(NamedTuple):
    """One remembered sample behind a histogram bucket: the observed value,
    the trace id (hex string) of the request that produced it, and a wall
    clock stamp — exactly what the OpenMetrics exposition needs to let a
    p99 bucket name a real offending request."""

    value: float
    trace_id: str
    timestamp: float


class Histogram:
    """Fixed upper-bound buckets (``le`` semantics), sharded per thread.

    ``observe`` is a bisect into a precomputed bounds tuple plus two cell
    writes — no allocation after a thread's first observation.

    When exemplar capture is enabled (``STATE.exemplars``) a call site may
    pass the trace id behind a sample; the histogram keeps the **last**
    exemplar per bucket in a plain dict (single-store writes are atomic
    under the GIL — last-writer-wins is exactly the semantics wanted, so
    no lock on the hot path).
    """

    __slots__ = (
        "name", "help", "labels", "_bounds", "_local", "_shards", "_lock",
        "_exemplars",
    )

    def __init__(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
        labels: Mapping[str, str] | None = None,
    ) -> None:
        self.name = _check_name(name)
        self.help = help
        self.labels = _check_labels(labels)
        bounds = tuple(float(b) for b in buckets)
        if not bounds or list(bounds) != sorted(set(bounds)):
            raise ValueError("histogram buckets must be sorted, unique, non-empty")
        # The +Inf bucket is implicit (the overflow slot); an explicit
        # trailing +Inf bound would double it in the exposition, so fold
        # it away here and keep every stored bound finite.
        if math.isinf(bounds[-1]):
            bounds = bounds[:-1]
        if not bounds or not all(math.isfinite(b) for b in bounds):
            raise ValueError("histogram buckets must contain finite bounds")
        self._bounds = bounds
        self._local = threading.local()
        self._shards: list[_HistogramShard] = []
        self._lock = threading.Lock()
        self._exemplars: dict[int, Exemplar] = {}

    def _shard(self) -> _HistogramShard:
        try:
            return self._local.shard
        except AttributeError:
            shard = _HistogramShard(len(self._bounds) + 1)
            with self._lock:
                self._shards.append(shard)
            self._local.shard = shard
            return shard

    def observe(self, value: float, exemplar: str | None = None) -> None:
        """Record one sample; values above the last bound go to +Inf.

        ``exemplar`` is the trace id (hex string) of the request behind the
        sample; it is kept per bucket only when exemplar capture is on.
        """
        if not STATE.enabled:
            return
        shard = self._shard()
        index = bisect_left(self._bounds, value)
        shard.counts[index] += 1
        shard.total += value
        if exemplar is not None and STATE.exemplars:
            self._exemplars[index] = Exemplar(value, exemplar, time.time())

    def snapshot(self) -> HistogramSnapshot:
        """Merge every shard into one immutable view."""
        counts = [0] * (len(self._bounds) + 1)
        total = 0.0
        with self._lock:
            for shard in self._shards:
                for i, c in enumerate(shard.counts):
                    counts[i] += c
                total += shard.total
        return HistogramSnapshot(self._bounds, counts, total)

    def exemplars(self) -> dict[int, Exemplar]:
        """Bucket index → last captured exemplar (index ``len(bounds)`` is
        the +Inf bucket)."""
        return dict(self._exemplars)

    def reset(self) -> None:
        with self._lock:
            for shard in self._shards:
                shard.counts = [0] * (len(self._bounds) + 1)
                shard.total = 0.0
        self._exemplars.clear()


Instrument = Counter | Gauge | Histogram


class MetricRegistry:
    """A named collection of instruments with get-or-create semantics.

    Each :class:`~repro.db.Database` owns one registry, so metrics from
    independent engine instances never bleed into each other; a module
    default (``obs.get_registry()``) serves component-less callers.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: dict[str, Instrument] = {}
        self._family_kind: dict[str, type] = {}

    def _get_or_create(
        self,
        name: str,
        labels: Mapping[str, str] | None,
        kind: type,
        factory: Callable[[], Any],
    ):
        key = name + label_suffix(_check_labels(labels))
        with self._lock:
            existing = self._metrics.get(key)
            if existing is not None:
                if type(existing) is not kind:
                    raise TypeError(
                        f"metric {key!r} already registered as "
                        f"{type(existing).__name__}, not {kind.__name__}"
                    )
                return existing
            family = self._family_kind.get(name)
            if family is not None and family is not kind:
                raise TypeError(
                    f"metric family {name!r} already registered as "
                    f"{family.__name__}, not {kind.__name__}"
                )
            instrument = factory()
            self._metrics[key] = instrument
            self._family_kind[name] = kind
            return instrument

    def counter(
        self, name: str, help: str = "",
        labels: Mapping[str, str] | None = None,
    ) -> Counter:
        """Get or create the counter series ``name`` + ``labels``."""
        return self._get_or_create(
            name, labels, Counter, lambda: Counter(name, help, labels)
        )

    def gauge(
        self, name: str, help: str = "",
        callback: Callable[[], float] | None = None,
        labels: Mapping[str, str] | None = None,
    ) -> Gauge:
        """Get or create the gauge ``name`` (optionally callback-backed)."""
        gauge = self._get_or_create(
            name, labels, Gauge, lambda: Gauge(name, help, callback, labels)
        )
        if callback is not None and gauge.callback is None:
            gauge.callback = callback
        return gauge

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
        labels: Mapping[str, str] | None = None,
    ) -> Histogram:
        """Get or create the histogram ``name`` with fixed ``buckets``."""
        return self._get_or_create(
            name, labels, Histogram, lambda: Histogram(name, help, buckets, labels)
        )

    def get(
        self, name: str, labels: Mapping[str, str] | None = None
    ) -> Instrument | None:
        """The instrument registered under ``name`` + ``labels``, or ``None``."""
        key = name + label_suffix(_check_labels(labels))
        with self._lock:
            return self._metrics.get(key)

    def unregister(
        self, name: str, labels: Mapping[str, str] | None = None
    ) -> bool:
        """Drop one series; ``True`` if it existed (idempotent).

        Components with a bounded lifetime (the obs HTTP server, the
        transactional service) register callback gauges that capture
        ``self``; unregistering on stop keeps repeated start/stop cycles
        from accumulating dead series — and dead object references —
        in a long-lived registry.
        """
        key = name + label_suffix(_check_labels(labels))
        with self._lock:
            removed = self._metrics.pop(key, None) is not None
            if removed and not any(
                m.name == name for m in self._metrics.values()
            ):
                self._family_kind.pop(name, None)
        return removed

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._metrics

    def __iter__(self) -> Iterator[Instrument]:
        """Instruments in stable order: by family name, then label set.

        Family-contiguous ordering is what lets the Prometheus exposition
        emit one HELP/TYPE block followed by every series of the family.
        """
        with self._lock:
            instruments = list(self._metrics.values())
        instruments.sort(key=lambda m: (m.name, label_suffix(m.labels)))
        return iter(instruments)

    def __len__(self) -> int:
        with self._lock:
            return len(self._metrics)

    def reset(self) -> None:
        """Zero every counter and histogram (gauges keep their callbacks)."""
        for instrument in self:
            if isinstance(instrument, (Counter, Histogram)):
                instrument.reset()
            elif instrument.callback is None:
                instrument._value = 0.0
