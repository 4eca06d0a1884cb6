"""The stdlib-only HTTP monitoring server: live scrape of one Database.

``db.serve_obs(port)`` starts a daemon :class:`ObsServer` exposing:

- ``/metrics``  — Prometheus text exposition of ``db.obs``,
- ``/healthz``  — ``db.health()`` as JSON; 503 while degraded,
- ``/varz``     — the stable JSON metric snapshot,
- ``/events``   — recent journal events; filter with
  ``?component=wal&kind=wal.flush&txn=123&block=7&limit=100``,
- ``/timeline/<txn_id>`` — the causal timeline of one transaction,
- ``/trace``    — the Chrome-trace document (drop into chrome://tracing),
- ``/pprof``    — collapsed-stack wall-clock profile (``?seconds=N``),
- ``/``         — an endpoint index.

Scrapes run on short-lived handler threads (``ThreadingHTTPServer``) and
only ever *read*: a merge of metric shards, a snapshot of the journal ring.
Nothing on the transaction critical path waits for a scrape.  The one
exception is ``/pprof``, which *samples*: it runs a
:class:`~repro.obs.profiler.SamplingProfiler` on the handler thread for
the requested window (default 1 s, capped at 30 s).  The output is
collapsed-stack text — feed it straight to a flamegraph renderer.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import TYPE_CHECKING, Any
from urllib.parse import parse_qs, urlparse

if TYPE_CHECKING:
    from repro.db import Database

PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

_ENDPOINTS = {
    "/metrics": (
        "Prometheus text exposition "
        "(?format=openmetrics or Accept: application/openmetrics-text "
        "for OpenMetrics with exemplars)"
    ),
    "/healthz": "liveness + durability status (503 while degraded)",
    "/varz": "stable JSON metric snapshot",
    "/events": (
        "recent journal events "
        "(?component=&kind=&txn=&block=&request=&limit=)"
    ),
    "/timeline/<txn_id>": "causal timeline of one transaction",
    "/trace": "Chrome-trace document of spans + events (?trace=<id> filters)",
    "/pprof": "collapsed-stack wall-clock profile (?seconds=N&interval=MS)",
    "/slo": "per-tenant SLO burn rates and error budgets",
    "/request/<request_id>": "critical-path breakdown of one service request",
}

#: Longest profiling window one request may hold a handler thread for.
MAX_PPROF_SECONDS = 30.0


def _int_param(params: dict[str, list[str]], name: str) -> int | None:
    values = params.get(name)
    if not values:
        return None
    try:
        return int(values[0])
    except ValueError:
        raise ValueError(f"query parameter {name!r} must be an integer")


def _float_param(params: dict[str, list[str]], name: str) -> float | None:
    values = params.get(name)
    if not values:
        return None
    try:
        return float(values[0])
    except ValueError:
        raise ValueError(f"query parameter {name!r} must be a number")


class _ObsHandler(BaseHTTPRequestHandler):
    """Routes one request against the owning server's database."""

    server: "_ObsHTTPServer"
    protocol_version = "HTTP/1.1"

    # BaseHTTPRequestHandler logs every request to stderr by default;
    # scrapes arrive every few seconds, so count them instead.
    def log_message(self, format: str, *args: Any) -> None:
        pass

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        db = self.server.db
        db.obs.counter(
            "obs.http_requests_total", "monitoring endpoint requests served"
        ).inc()
        parsed = urlparse(self.path)
        path = parsed.path.rstrip("/") or "/"
        try:
            if path == "/metrics":
                self._serve_metrics(parse_qs(parsed.query))
            elif path == "/healthz":
                health = db.health()
                status = 200 if health["status"] == "ok" else 503
                self._respond_json(status, health)
            elif path == "/varz":
                from repro.obs.expo import snapshot

                self._respond_json(200, snapshot(db.obs))
            elif path == "/events":
                self._serve_events(parse_qs(parsed.query))
            elif path.startswith("/timeline/"):
                self._serve_timeline(path.removeprefix("/timeline/"))
            elif path == "/trace":
                self._serve_trace(parse_qs(parsed.query))
            elif path == "/pprof":
                self._serve_pprof(parse_qs(parsed.query))
            elif path == "/slo":
                self._serve_slo()
            elif path.startswith("/request/"):
                self._serve_request(path.removeprefix("/request/"))
            elif path == "/":
                self._respond_json(200, {"endpoints": _ENDPOINTS})
            else:
                self._respond_json(404, {"error": f"no such endpoint: {path}"})
        except ValueError as exc:
            self._respond_json(400, {"error": str(exc)})
        except Exception as exc:  # never kill the handler thread silently
            self._respond_json(500, {"error": repr(exc)})

    def _serve_metrics(self, params: dict[str, list[str]]) -> None:
        """Prometheus v0.0.4 by default; OpenMetrics 1.0 (with exemplars)
        when the scraper asks via ``?format=openmetrics`` or an ``Accept``
        header naming ``application/openmetrics-text``."""
        db = self.server.db
        fmt = params.get("format", [None])[0]
        accept = self.headers.get("Accept", "")
        if fmt == "openmetrics" or "application/openmetrics-text" in accept:
            from repro.obs.expo import OPENMETRICS_CONTENT_TYPE, render_openmetrics

            self._respond(
                200, render_openmetrics(db.obs), OPENMETRICS_CONTENT_TYPE
            )
            return
        if fmt is not None and fmt != "prometheus":
            raise ValueError(
                f"unknown metrics format {fmt!r}; use 'prometheus' or "
                "'openmetrics'"
            )
        from repro.obs.expo import render_prometheus

        self._respond(200, render_prometheus(db.obs), PROMETHEUS_CONTENT_TYPE)

    def _serve_events(self, params: dict[str, list[str]]) -> None:
        db = self.server.db
        limit = _int_param(params, "limit")
        events = db.recorder.events(
            component=params.get("component", [None])[0],
            kind=params.get("kind", [None])[0],
            txn_id=_int_param(params, "txn"),
            block_id=_int_param(params, "block"),
            request_id=_int_param(params, "request"),
            limit=limit if limit is not None else 250,
        )
        self._respond_json(
            200,
            {
                "events": [e.to_dict() for e in events],
                "dropped_total": db.recorder.events_dropped,
            },
        )

    def _serve_trace(self, params: dict[str, list[str]]) -> None:
        from repro.obs.recorder import render_chrome_trace

        db = self.server.db
        request_log = getattr(db, "request_log", None)
        requests = request_log.recent(limit=250) if request_log is not None else None
        self._respond(
            200,
            render_chrome_trace(
                db.recorder,
                trace_id=_int_param(params, "trace"),
                requests=requests,
            ),
            "application/json; charset=utf-8",
        )

    def _serve_slo(self) -> None:
        slo = getattr(self.server.db, "slo", None)
        if slo is None:
            self._respond_json(
                404, {"error": "this database has no SLO tracker"}
            )
            return
        self._respond_json(200, slo.report())

    def _serve_request(self, raw_id: str) -> None:
        """The critical-path breakdown of one service request, addressable
        by request id or by trace id (``/request/trace:<hex>`` — the form
        an exemplar or response envelope hands you)."""
        request_log = getattr(self.server.db, "request_log", None)
        if request_log is None:
            self._respond_json(
                404, {"error": "this database has no request log"}
            )
            return
        if raw_id.startswith("trace:"):
            lifecycle = request_log.by_trace(raw_id.removeprefix("trace:"))
        else:
            try:
                lifecycle = request_log.get(int(raw_id))
            except ValueError:
                raise ValueError(
                    "request id must be an integer or trace:<hex>, got "
                    f"{raw_id!r}"
                )
        if lifecycle is None:
            self._respond_json(
                404, {"error": f"no recorded request {raw_id!r}"}
            )
            return
        self._respond_json(200, lifecycle.to_dict())

    def _serve_pprof(self, params: dict[str, list[str]]) -> None:
        """Profile every thread for ``?seconds=N`` and respond with
        collapsed stacks."""
        import time as _time

        from repro.obs.profiler import SamplingProfiler, render_collapsed

        db = self.server.db
        seconds = _float_param(params, "seconds")
        seconds = 1.0 if seconds is None else seconds
        if seconds <= 0:
            raise ValueError("query parameter 'seconds' must be positive")
        seconds = min(seconds, MAX_PPROF_SECONDS)
        interval_ms = _float_param(params, "interval")
        interval = (interval_ms / 1000.0) if interval_ms else 0.005
        if interval <= 0:
            raise ValueError("query parameter 'interval' must be positive")

        profiler = SamplingProfiler(interval=interval)
        recorder = getattr(db, "recorder", None)
        previous = getattr(recorder, "profiler", None) if recorder else None
        # Publish the live profiler so slow-txn events recorded during the
        # window pick up top-of-stack attribution.
        if recorder is not None:
            recorder.profiler = profiler
        try:
            profiler.start()
            _time.sleep(seconds)
            profiler.stop()
        finally:
            if recorder is not None:
                recorder.profiler = previous
        self._respond(
            200, render_collapsed(profiler.snapshot()), "text/plain; charset=utf-8"
        )

    def _serve_timeline(self, raw_id: str) -> None:
        try:
            txn_id = int(raw_id)
        except ValueError:
            raise ValueError(f"timeline id must be an integer, got {raw_id!r}")
        timeline = self.server.db.timeline(txn_id)
        if not timeline["events"]:
            self._respond_json(
                404, {"error": f"no journal events for transaction {txn_id}"}
            )
            return
        self._respond_json(200, timeline)

    def _respond_json(self, status: int, payload: dict[str, Any]) -> None:
        self._respond(
            status,
            json.dumps(payload, indent=2, sort_keys=True, default=str),
            "application/json; charset=utf-8",
        )

    def _respond(self, status: int, body: str, content_type: str) -> None:
        raw = body.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(raw)))
        self.end_headers()
        self.wfile.write(raw)


class _ObsHTTPServer(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address: tuple[str, int], db: "Database") -> None:
        super().__init__(address, _ObsHandler)
        self.db = db


class ObsServer:
    """Lifecycle wrapper around the monitoring HTTP server.

    ``port=0`` binds an ephemeral port; read the actual one from
    :attr:`port` (or :attr:`url`).  ``stop()`` is idempotent.
    """

    def __init__(self, db: "Database", host: str = "127.0.0.1", port: int = 0) -> None:
        self.db = db
        self.host = host
        self._httpd = _ObsHTTPServer((host, port), db)
        self._thread: threading.Thread | None = None

    @property
    def port(self) -> int:
        """The actually bound port."""
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "ObsServer":
        """Serve on a daemon thread; returns self for chaining."""
        if self._thread is not None:
            return self
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            kwargs={"poll_interval": 0.1},
            daemon=True,
            name="obs-server",
        )
        self._thread.start()
        # Registered on start, unregistered on stop: a start/stop cycle
        # must leave the registry exactly as it found it (each restart
        # would otherwise strand a gauge whose callback pins a dead
        # server object).
        self.db.obs.gauge(
            "obs.server_up",
            "1 while the monitoring HTTP server accepts scrapes",
            callback=lambda: 1.0 if self._thread is not None else 0.0,
        )
        return self

    def stop(self) -> None:
        """Shut down, release the socket, and unregister the gauges this
        server added (idempotent — repeated stops, or stop after a failed
        start, are no-ops)."""
        thread, self._thread = self._thread, None
        if thread is not None:
            self._httpd.shutdown()
            thread.join()
            self.db.obs.unregister("obs.server_up")
        self._httpd.server_close()
