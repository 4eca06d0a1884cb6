"""The write gate: backpressure keyed off the engine's own health report.

``db.health()`` already distils the durability story — WAL backlog,
flush-failure streaks, sticky degraded read-only mode.  The gate turns
that report into a single boolean the request path consults per write:
open (writes flow) or closed (writes shed with ``degraded`` while reads
keep being served).

Two robustness details matter more than the boolean itself:

**Hysteresis.**  A gate that closes at backlog ≥ N and reopens at
backlog < N flaps at the boundary — every drained entry reopens it, the
next admitted write closes it again, and clients see an alternating
accept/reject pattern that defeats their retry backoff.  So the gate
closes at ``backlog_high`` but reopens only once backlog has drained to
``backlog_low`` *and* stayed healthy for ``reopen_after`` consecutive
checks.

**Sharded health.**  On a :class:`~repro.cluster.sharded.ShardedDatabase`
the top-level ``wal`` section already rolls the shards up to the worst
backlog, so one shard over the watermark closes the gate for the whole
cluster (a 2PC write touching that shard would stall anyway).

A sticky-degraded engine (``status != "ok"``) keeps the gate closed no
matter the backlog — that state never self-heals, and the gate mirrors
it honestly.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.obs.registry import MetricRegistry

if TYPE_CHECKING:
    from repro.obs.recorder import Recorder


def wal_backlog(health: dict[str, Any]) -> int:
    """The WAL backlog in a health report (0 with logging disabled)."""
    wal = health.get("wal")
    return int(wal.get("backlog", 0)) if wal is not None else 0


class HealthGate:
    """Hysteretic open/closed decision over ``db.health()`` reports."""

    def __init__(
        self,
        backlog_high: int = 256,
        backlog_low: int | None = None,
        reopen_after: int = 3,
        registry: MetricRegistry | None = None,
        recorder: "Recorder | None" = None,
    ) -> None:
        if backlog_high < 1:
            raise ValueError("backlog_high must be at least 1")
        self.backlog_high = backlog_high
        self.backlog_low = (
            backlog_low if backlog_low is not None else max(0, backlog_high // 4)
        )
        if self.backlog_low >= self.backlog_high:
            raise ValueError("backlog_low must be below backlog_high")
        if reopen_after < 1:
            raise ValueError("reopen_after must be at least 1")
        self.reopen_after = reopen_after
        self.recorder = recorder
        self._open = True
        self._healthy_streak = 0
        self._last_reason = ""
        self.registry = registry if registry is not None else MetricRegistry()
        self.registry.gauge(
            "service.write_gate_open",
            "1 while the service accepts writes",
            callback=lambda: 1.0 if self._open else 0.0,
        )
        self._m_closed = self.registry.counter(
            "service.write_gate_closed_total", "write-gate close transitions"
        )
        self._m_reopened = self.registry.counter(
            "service.write_gate_reopened_total", "write-gate reopen transitions"
        )

    @property
    def open(self) -> bool:
        return self._open

    @property
    def reason(self) -> str:
        """Why the gate last closed (empty while it has never closed)."""
        return self._last_reason

    def observe(self, health: dict[str, Any]) -> bool:
        """Feed one health report; returns the resulting open state."""
        status = health.get("status", "ok")
        backlog = wal_backlog(health)
        unhealthy = status != "ok" or backlog >= self.backlog_high
        if self._open:
            if unhealthy:
                self._close(status, backlog)
            return self._open
        # Closed: demand sustained health below the low watermark.
        if status == "ok" and backlog <= self.backlog_low:
            self._healthy_streak += 1
            if self._healthy_streak >= self.reopen_after:
                self._reopen(backlog)
        else:
            self._healthy_streak = 0
        return self._open

    def _close(self, status: str, backlog: int) -> None:
        self._open = False
        self._healthy_streak = 0
        self._last_reason = (
            f"status={status}" if status != "ok" else f"wal backlog {backlog}"
        )
        self._m_closed.inc()
        if self.recorder is not None:
            self.recorder.record(
                "service.write_gate", state="closed",
                status=status, backlog=backlog,
            )

    def _reopen(self, backlog: int) -> None:
        self._open = True
        self._healthy_streak = 0
        self._m_reopened.inc()
        if self.recorder is not None:
            self.recorder.record(
                "service.write_gate", state="open", backlog=backlog,
            )

    def unregister_metrics(self) -> None:
        """Drop the callback gauge (idempotent) — it pins ``self``."""
        self.registry.unregister("service.write_gate_open")
