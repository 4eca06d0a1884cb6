"""Request-scoped critical-path attribution and per-tenant SLO tracking.

Three pieces, same off-critical-path principle as the rest of ``repro.obs``:

:class:`RequestLifecycle`
    One service request's phase-stamped lifetime.  Each phase
    (``admission.queue_wait``, ``slot_wait``, ``engine``,
    ``retry.backoff``, ``wal.fsync_wait``, ``cluster.prepare``,
    ``cluster.decide``, ``response.write``) is a pair
    of ``perf_counter()`` stamps — no allocation beyond one small list per
    phase, no locks on the stamping path.  :meth:`RequestLifecycle.breakdown`
    folds the stamps into a critical-path view: phases nested inside the
    ``engine`` window (backoff sleeps, fsync waits, 2PC phases) are
    subtracted out of it, so the breakdown answers *where did
    this request's time actually go* instead of double-counting.

    The lifecycle binds to the executing thread via :meth:`activate`, and
    deep engine layers stamp through :func:`stamp_phase` without any
    plumbing: when no request is active the stamp is one thread-local
    ``getattr`` and a branch (the same disabled-cost discipline the metric
    registry holds itself to, measured by
    ``benchmarks/bench_ablation_slo_attribution.py``).

:class:`RequestLog`
    A bounded ring of completed lifecycles keyed by request id (and by
    trace id, which is how a histogram exemplar's ``trace_id`` resolves
    back to a breakdown).  Serves ``/request/<id>``.

:class:`SloTracker`
    Per-tenant service-level objectives (target latency + availability)
    tracked over rolling multi-window buckets: burn rate per window
    (observed bad fraction over the error budget) and remaining error
    budget.  Computed from the same completion stream that feeds the
    latency histograms; exposed at ``/slo``, in ``db.health()``, and as
    ``slo.*`` gauges in the Prometheus exposition.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from time import perf_counter
from typing import TYPE_CHECKING, Any, Callable, Iterable

if TYPE_CHECKING:
    from repro.obs.registry import MetricRegistry

#: Phases that run *inside* the ``engine`` window; their time is
#: subtracted from ``engine`` in the breakdown so the critical path sums
#: instead of double-counting.
INNER_PHASES = frozenset(
    {
        "retry.backoff",
        "wal.fsync_wait",
        "cluster.prepare",
        "cluster.decide",
    }
)

#: The thread-local "current request" cell.  The service binds a
#: lifecycle here (via :meth:`RequestLifecycle.activate`) for the duration
#: of the engine work; the flight recorder and :func:`stamp_phase` read
#: it.  Public so the recorder can do one raw ``getattr`` per event.
CURRENT = threading.local()


def current_lifecycle() -> "RequestLifecycle | None":
    """The request lifecycle bound to this thread, if any."""
    return getattr(CURRENT, "lifecycle", None)


def current_request_id() -> int | None:
    lifecycle = getattr(CURRENT, "lifecycle", None)
    return lifecycle.request_id if lifecycle is not None else None


class _Phase:
    """Context manager stamping one phase interval (class-based: cheap)."""

    __slots__ = ("_lifecycle", "_name", "_start")

    def __init__(self, lifecycle: "RequestLifecycle", name: str) -> None:
        self._lifecycle = lifecycle
        self._name = name

    def __enter__(self) -> "_Phase":
        self._start = perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self._lifecycle.phases.append(
            [self._name, self._start, perf_counter()]
        )


class _NullPhase:
    """Shared no-op scope for threads with no active request."""

    __slots__ = ()

    def __enter__(self) -> "_NullPhase":
        return self

    def __exit__(self, *exc_info) -> None:
        return None


_NULL_PHASE = _NullPhase()


def stamp_phase(name: str) -> "_Phase | _NullPhase":
    """Stamp ``name`` onto the current request, if one is active.

    This is the hook deep engine layers call (retry backoff, durability
    waits, 2PC phases): no handle threading,
    and when no request is active — every non-service workload — the cost
    is one thread-local ``getattr`` and a branch.
    """
    lifecycle = getattr(CURRENT, "lifecycle", None)
    if lifecycle is None:
        return _NULL_PHASE
    return _Phase(lifecycle, name)


class _Activation:
    """Scope during which a lifecycle is this thread's current request."""

    __slots__ = ("_lifecycle", "_prev")

    def __init__(self, lifecycle: "RequestLifecycle") -> None:
        self._lifecycle = lifecycle

    def __enter__(self) -> "_Activation":
        self._prev = getattr(CURRENT, "lifecycle", None)
        CURRENT.lifecycle = self._lifecycle
        return self

    def __exit__(self, *exc_info) -> None:
        CURRENT.lifecycle = self._prev


class RequestLifecycle:
    """One request's phase-stamped lifetime and outcome.

    Stamping happens from at most one thread at a time (the event loop
    before/after execution, one executor thread during), so the phase
    list needs no lock.
    """

    __slots__ = (
        "request_id", "op", "tenant", "trace_id", "started", "ended",
        "outcome", "terminal_phase", "phases",
    )

    def __init__(
        self, request_id: int, op: str = "unknown", tenant: str = "default"
    ) -> None:
        self.request_id = request_id
        self.op = op
        self.tenant = tenant
        #: Trace id of the request's root span, set once engine work opens
        #: it; ``None`` for requests shed before execution.
        self.trace_id: int | None = None
        self.started = perf_counter()
        self.ended: float | None = None
        self.outcome: str | None = None
        #: The phase a shed request died in (``"admission"`` for every
        #: pre-execution rejection); ``None`` for completed requests.
        self.terminal_phase: str | None = None
        #: ``[name, start, end]`` stamps on the ``perf_counter`` axis.
        self.phases: list[list] = []

    # -- stamping ------------------------------------------------------- #

    def phase(self, name: str) -> _Phase:
        """A context manager stamping one ``name`` interval."""
        return _Phase(self, name)

    def stamp(self, name: str, start: float, end: float) -> None:
        """Record an externally timed interval (e.g. the admission queue
        wait, measured on the event loop before the lifecycle migrates to
        an executor thread)."""
        self.phases.append([name, start, end])

    def activate(self) -> _Activation:
        """Bind this lifecycle to the current thread for the scope."""
        return _Activation(self)

    def finish(
        self, outcome: str, terminal_phase: str | None = None
    ) -> None:
        self.outcome = outcome
        if terminal_phase is not None:
            self.terminal_phase = terminal_phase

    def close(self) -> None:
        """Seal the total-latency clock (idempotent)."""
        if self.ended is None:
            self.ended = perf_counter()

    # -- derived views -------------------------------------------------- #

    @property
    def total_seconds(self) -> float:
        return (self.ended if self.ended is not None else perf_counter()) - self.started

    @property
    def trace_hex(self) -> str | None:
        """The trace id as the hex string exemplars and envelopes carry."""
        return format(self.trace_id, "x") if self.trace_id is not None else None

    def breakdown(self) -> dict[str, float]:
        """Seconds per phase, critical-path style.

        Inner phases (:data:`INNER_PHASES` — stamps taken *during* the
        engine window) are subtracted from ``engine`` by interval overlap,
        so the values sum toward the total instead of double-counting;
        whatever none of the stamps cover is ``unattributed``.
        """
        sums: dict[str, float] = {}
        engine_windows = [
            (start, end) for name, start, end in self.phases if name == "engine"
        ]
        for name, start, end in self.phases:
            sums[name] = sums.get(name, 0.0) + (end - start)
        if "engine" in sums:
            # Inner phases close *before* their enclosing engine window
            # does, so subtract overlaps in a second pass once every
            # window is summed.
            for name, start, end in self.phases:
                if name == "engine":
                    continue
                overlap = sum(
                    max(0.0, min(end, w_end) - max(start, w_start))
                    for w_start, w_end in engine_windows
                )
                if overlap > 0.0:
                    sums["engine"] = max(0.0, sums["engine"] - overlap)
        total = self.total_seconds
        sums["unattributed"] = max(0.0, total - sum(sums.values()))
        return sums

    def dominant_phase(self) -> str | None:
        """The phase holding the most exclusive time (the critical-path
        headline).  A request that never executed (``terminal_phase`` set:
        shed, gated, draining) is attributed to the phase that refused it,
        however little time that took — the microseconds its rejection
        spent writing out must not become the headline."""
        if self.terminal_phase is not None:
            return self.terminal_phase
        parts = {
            name: seconds
            for name, seconds in self.breakdown().items()
            if name != "unattributed"
        }
        if not parts:
            return None
        return max(parts, key=parts.get)

    def to_dict(self) -> dict[str, Any]:
        """The ``/request/<id>`` JSON view: waterfall + breakdown."""
        breakdown = self.breakdown()
        waterfall = [
            {
                "phase": name,
                "start_ms": round((start - self.started) * 1e3, 4),
                "duration_ms": round((end - start) * 1e3, 4),
            }
            for name, start, end in self.phases
        ]
        return {
            "request_id": self.request_id,
            "op": self.op,
            "tenant": self.tenant,
            "trace_id": self.trace_hex,
            "outcome": self.outcome,
            "terminal_phase": self.terminal_phase,
            "total_ms": round(self.total_seconds * 1e3, 4),
            "started": self.started,
            "waterfall": waterfall,
            "breakdown_ms": {
                name: round(seconds * 1e3, 4)
                for name, seconds in sorted(breakdown.items())
            },
            "dominant_phase": self.dominant_phase(),
        }


class RequestLog:
    """A bounded ring of completed lifecycles, addressable by request id
    and by trace id (how an exemplar resolves to a breakdown)."""

    def __init__(self, capacity: int = 1024) -> None:
        if capacity < 1:
            raise ValueError("request log capacity must be positive")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._order: deque[int] = deque()
        self._by_id: dict[int, RequestLifecycle] = {}
        self._by_trace: dict[int, int] = {}

    def add(self, lifecycle: RequestLifecycle) -> None:
        with self._lock:
            if lifecycle.request_id in self._by_id:
                return
            while len(self._order) >= self.capacity:
                evicted = self._order.popleft()
                old = self._by_id.pop(evicted, None)
                if old is not None and old.trace_id is not None:
                    if self._by_trace.get(old.trace_id) == evicted:
                        del self._by_trace[old.trace_id]
            self._order.append(lifecycle.request_id)
            self._by_id[lifecycle.request_id] = lifecycle
            if lifecycle.trace_id is not None:
                self._by_trace[lifecycle.trace_id] = lifecycle.request_id

    def get(self, request_id: int) -> RequestLifecycle | None:
        with self._lock:
            return self._by_id.get(request_id)

    def by_trace(self, trace_id: int | str) -> RequestLifecycle | None:
        """Lookup by trace id — accepts the raw int or the hex string an
        exemplar / response envelope carries."""
        if isinstance(trace_id, str):
            try:
                trace_id = int(trace_id, 16)
            except ValueError:
                return None
        with self._lock:
            request_id = self._by_trace.get(trace_id)
            return self._by_id.get(request_id) if request_id is not None else None

    def recent(self, limit: int = 50) -> list[RequestLifecycle]:
        """Newest-last recent completions."""
        with self._lock:
            ids = list(self._order)[-limit:]
            return [self._by_id[i] for i in ids]

    def __len__(self) -> int:
        with self._lock:
            return len(self._by_id)


class _TenantSlo:
    """One tenant's objective and rolling buckets."""

    __slots__ = ("target_latency", "availability", "buckets")

    def __init__(self, target_latency: float, availability: float) -> None:
        self.target_latency = target_latency
        self.availability = availability
        #: ``[bucket_index, total, good]`` — appended in time order.
        self.buckets: deque[list] = deque()


class SloTracker:
    """Per-tenant SLO accounting: burn rate and error budget over rolling
    windows.

    A request is *good* when it completed ok **within the tenant's target
    latency**; sheds and errors are bad, and so are slow successes (a
    latency SLO that ignored tardy answers would never burn).  Burn rate
    over a window is the observed bad fraction divided by the budgeted
    bad fraction (``1 - availability``): 1.0 burns the budget exactly at
    the sustainable rate, >1 is an alert.
    """

    def __init__(
        self,
        registry: "MetricRegistry | None" = None,
        target_latency: float = 0.25,
        availability: float = 0.999,
        windows: Iterable[float] = (60.0, 300.0, 3600.0),
        bucket_seconds: float = 5.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if not 0.0 < availability < 1.0:
            raise ValueError("availability target must be in (0, 1)")
        self.default_target_latency = float(target_latency)
        self.default_availability = float(availability)
        self.windows = tuple(sorted(float(w) for w in windows))
        if not self.windows or self.windows[0] <= 0:
            raise ValueError("windows must be positive")
        self.bucket_seconds = float(bucket_seconds)
        self.clock = clock
        self._lock = threading.Lock()
        self._tenants: dict[str, _TenantSlo] = {}
        self._registry = registry
        self._gauged: set[str] = set()

    def configure_defaults(
        self,
        target_latency: float | None = None,
        availability: float | None = None,
    ) -> None:
        """Adjust the defaults new tenants inherit (the service front door
        pushes its ``ServiceConfig`` targets here)."""
        if target_latency is not None:
            self.default_target_latency = float(target_latency)
        if availability is not None:
            self.default_availability = float(availability)

    def _tenant(self, tenant: str) -> _TenantSlo:
        state = self._tenants.get(tenant)
        if state is None:
            state = self._tenants[tenant] = _TenantSlo(
                self.default_target_latency, self.default_availability
            )
            self._register_gauges(tenant)
        return state

    def _register_gauges(self, tenant: str) -> None:
        if self._registry is None or tenant in self._gauged:
            return
        self._gauged.add(tenant)
        for window in self.windows:
            label = f"{int(window)}s"
            self._registry.gauge(
                "slo.burn_rate",
                "error-budget burn rate per tenant and window "
                "(1.0 = burning exactly the budget)",
                callback=lambda t=tenant, w=window: self.burn_rate(t, w),
                labels={"tenant": tenant, "window": label},
            )
        self._registry.gauge(
            "slo.error_budget_remaining",
            "fraction of the error budget left over the longest window",
            callback=lambda t=tenant: self.error_budget_remaining(t),
            labels={"tenant": tenant},
        )

    # -- write path ----------------------------------------------------- #

    def record(
        self, tenant: str, latency: float, ok: bool, shed: bool = False
    ) -> None:
        """Fold one finished request in.

        ``shed`` requests are bad by definition (they are the availability
        failures admission control makes explicit) regardless of how fast
        the rejection was.
        """
        now = self.clock()
        index = int(now / self.bucket_seconds)
        with self._lock:
            state = self._tenant(tenant)
            good = ok and not shed and latency <= state.target_latency
            buckets = state.buckets
            if buckets and buckets[-1][0] == index:
                cell = buckets[-1]
                cell[1] += 1
                cell[2] += 1 if good else 0
            else:
                buckets.append([index, 1, 1 if good else 0])
            horizon = index - int(self.windows[-1] / self.bucket_seconds) - 1
            while buckets and buckets[0][0] < horizon:
                buckets.popleft()

    # -- read path ------------------------------------------------------ #

    def _window_counts(
        self, state: _TenantSlo, window: float, now: float
    ) -> tuple[int, int]:
        cutoff = int(now / self.bucket_seconds) - int(
            window / self.bucket_seconds
        )
        total = good = 0
        for index, bucket_total, bucket_good in reversed(state.buckets):
            if index < cutoff:
                break
            total += bucket_total
            good += bucket_good
        return total, good

    def burn_rate(self, tenant: str, window: float) -> float:
        """Observed bad fraction over the budgeted bad fraction; 0.0 with
        no traffic (no traffic burns no budget)."""
        with self._lock:
            state = self._tenants.get(tenant)
            if state is None:
                return 0.0
            total, good = self._window_counts(state, window, self.clock())
            if total == 0:
                return 0.0
            bad_fraction = (total - good) / total
            return bad_fraction / (1.0 - state.availability)

    def error_budget_remaining(self, tenant: str) -> float:
        """Fraction of the longest window's error budget unspent (1.0 with
        no traffic; clamped at 0)."""
        with self._lock:
            state = self._tenants.get(tenant)
            if state is None:
                return 1.0
            total, good = self._window_counts(
                state, self.windows[-1], self.clock()
            )
            if total == 0:
                return 1.0
            budget = total * (1.0 - state.availability)
            return max(0.0, 1.0 - (total - good) / budget) if budget > 0 else 0.0

    def report(self) -> dict[str, Any]:
        """The ``/slo`` JSON document."""
        now = self.clock()
        with self._lock:
            tenants = {}
            for tenant, state in sorted(self._tenants.items()):
                windows = {}
                for window in self.windows:
                    total, good = self._window_counts(state, window, now)
                    bad = total - good
                    bad_fraction = bad / total if total else 0.0
                    windows[f"{int(window)}s"] = {
                        "total": total,
                        "good": good,
                        "bad": bad,
                        "bad_fraction": round(bad_fraction, 6),
                        "burn_rate": round(
                            bad_fraction / (1.0 - state.availability), 4
                        ),
                    }
                tenants[tenant] = {
                    "objective": {
                        "target_latency_ms": state.target_latency * 1e3,
                        "availability": state.availability,
                    },
                    "windows": windows,
                }
        out = {"tenants": tenants}
        for tenant in tenants:
            tenants[tenant]["error_budget_remaining"] = round(
                self.error_budget_remaining(tenant), 6
            )
        return out

    def health_summary(self) -> dict[str, Any]:
        """The compact section ``db.health()`` embeds: worst burn over the
        shortest window and which tenants are currently breaching."""
        shortest = self.windows[0]
        with self._lock:
            names = list(self._tenants)
        worst = 0.0
        breaching = []
        for tenant in names:
            burn = self.burn_rate(tenant, shortest)
            worst = max(worst, burn)
            if burn > 1.0:
                breaching.append(tenant)
        return {
            "tenants": len(names),
            "window_seconds": shortest,
            "worst_burn_rate": round(worst, 4),
            "breaching": sorted(breaching),
        }
