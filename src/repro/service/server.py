"""The transactional front door: an asyncio server built to survive overload.

One :class:`TransactionalServer` fronts one engine — a plain
:class:`~repro.db.Database` or a :class:`~repro.cluster.sharded.ShardedDatabase`
(the request path only touches :class:`~repro.db.Engine`'s surface) — and speaks the
framed protocol of :mod:`repro.service.protocol`: point reads and scans
answered through the postgres-wire row codec, whole-table exports through
the Flight encoder, and simple write transactions (upsert/delete through
an index) run under :func:`~repro.txn.retry.retry_transaction`.

The interesting part is not the request dispatch but the failure shape:

- every request passes the :class:`~repro.service.admission.AdmissionController`
  first, so overload produces *fast explicit sheds* instead of unbounded
  queues;
- writes additionally pass the :class:`~repro.service.gate.HealthGate`,
  which watches ``db.health()`` and flips the server read-only (with
  hysteresis) while the WAL is backlogged or the engine degraded;
- the client's ``deadline_ms`` is enforced at admission, inside the retry
  loop (via ``retry_transaction``'s ``deadline``), and again before the
  response is written out;
- a write is acknowledged only after ``txn.wait_durable()`` — the
  speculative-visibility rule of Section 3.2 at the network boundary —
  which is what makes the drain guarantee ("never drop an acknowledged
  commit") achievable at all;
- :meth:`drain` (wired to SIGTERM by ``python -m repro.service serve``)
  stops accepting, sheds new work with ``draining``, waits out in-flight
  requests up to a bounded timeout, and flushes the log before exit.

Engine calls are blocking, so they run on a thread pool sized exactly to
``max_inflight`` — the admission controller's slot count and the
executor's worker count are the same number, meaning an admitted request
never queues *again* behind the executor.

Every request is also *attributed*: it gets a server-assigned request id,
a phase-stamped :class:`~repro.obs.slo.RequestLifecycle` (queue wait, slot
wait, engine time, and the engine-internal waits stamped by deeper layers
— retry backoff, fsync waits, 2PC phases — plus the
response write), and a root ``service.request`` trace span whose id rides
the response envelope and the latency histogram's exemplars.  Completions
feed the engine's per-tenant :class:`~repro.obs.slo.SloTracker` and land
in its flight recorder, so ``/slo`` and ``/request/<id>`` on ``db.serve_obs()``
answer "who is burning budget" and "where did this request's time go".
"""

from __future__ import annotations

import asyncio
import itertools
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import closing
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable

from repro.db import Engine
from repro.errors import (
    DegradedError,
    ReproError,
    SerializationError,
    ServiceOverload,
    TransactionAborted,
    TwoPhaseInDoubt,
)
from repro.export import flight, postgres_wire
from repro.obs.registry import STATE
from repro.obs.slo import RequestLifecycle
from repro.obs.trace import current_trace_id, span
from repro.query.scan import TableScanner
from repro.service import protocol
from repro.service.admission import AdmissionController
from repro.service.gate import HealthGate
from repro.service.protocol import Request
from repro.txn.retry import retry_transaction


@dataclass(frozen=True)
class ServiceConfig:
    """Every knob of the front door, with overload-safe defaults."""

    host: str = "127.0.0.1"
    port: int = 0                       # 0 = ephemeral; read server.port
    max_connections: int = 256
    max_inflight: int = 8               # execution slots == executor threads
    max_queue: int = 16                 # bounded accept queue behind the slots
    tenant_rate: float | None = None    # req/s per tenant (None = unlimited)
    tenant_burst: float | None = None
    backlog_high: int = 256             # WAL backlog closing the write gate
    backlog_low: int | None = None      # reopen watermark (default high // 4)
    reopen_after: int = 3               # consecutive healthy checks to reopen
    health_interval: float = 0.05       # seconds between health() polls
    default_deadline_ms: float | None = 5_000.0
    retries: int = 5                    # conflict-retry budget per write
    durability_timeout: float = 5.0     # bound on wait_durable per write
    drain_timeout: float = 10.0         # bound on SIGTERM drain
    slo_target_ms: float = 250.0        # per-tenant latency objective
    slo_availability: float = 0.999     # per-tenant availability objective
    exemplars: bool = True              # trace ids on p99 histogram buckets


class TransactionalServer:
    """The asyncio front door over one database (or sharded cluster)."""

    def __init__(self, db: Engine, config: ServiceConfig | None = None) -> None:
        self.db = db
        self.config = config or ServiceConfig()
        self.registry = db.obs
        self.recorder = db.recorder
        cfg = self.config
        self.admission = AdmissionController(
            max_inflight=cfg.max_inflight,
            max_queue=cfg.max_queue,
            max_connections=cfg.max_connections,
            tenant_rate=cfg.tenant_rate,
            tenant_burst=cfg.tenant_burst,
            registry=self.registry,
            recorder=self.recorder,
        )
        self.gate = HealthGate(
            backlog_high=cfg.backlog_high,
            backlog_low=cfg.backlog_low,
            reopen_after=cfg.reopen_after,
            registry=self.registry,
            recorder=self.recorder,
        )
        # Request attribution: ids are minted here, lifecycles land in the
        # engine's recorder (so /request/<id> works on db.serve_obs()),
        # and completions feed the engine's per-tenant SLO tracker.
        self._request_ids = itertools.count(1)
        db.slo.configure_defaults(
            target_latency=cfg.slo_target_ms / 1e3,
            availability=cfg.slo_availability,
        )
        self._prev_exemplars: bool | None = None
        self._executor = ThreadPoolExecutor(
            max_workers=cfg.max_inflight, thread_name_prefix="service"
        )
        self._server: asyncio.AbstractServer | None = None
        self._health_task: asyncio.Task | None = None
        self._conn_tasks: set[asyncio.Task] = set()
        self._inflight_requests = 0
        self._draining = False
        self._stopped = False
        self.unhandled_exceptions = 0
        reg = self.registry
        self._m_latency = reg.histogram(
            "service.request_seconds", "admitted-request latency by outcome"
        )
        self._m_responses: dict[str, Any] = {}
        self._m_unhandled = reg.counter(
            "service.unhandled_exceptions_total",
            "handler exceptions that reached the catch-all (bugs, not load)",
        )
        reg.gauge(
            "service.draining",
            "1 while the server is draining toward shutdown",
            callback=lambda: 1.0 if self._draining else 0.0,
        )
        reg.gauge(
            "service.up",
            "1 while the front door accepts connections",
            callback=lambda: 1.0 if self._server is not None else 0.0,
        )

    # ------------------------------------------------------------------ #
    # lifecycle                                                           #
    # ------------------------------------------------------------------ #

    async def start(self) -> "TransactionalServer":
        if self._server is not None:
            return self
        if self.config.exemplars:
            self._prev_exemplars = STATE.exemplars
            STATE.exemplars = True
        self._server = await asyncio.start_server(
            self._on_connection, self.config.host, self.config.port
        )
        self._health_task = asyncio.get_running_loop().create_task(
            self._health_loop()
        )
        self.recorder.record("service.start", port=self.port)
        return self

    @property
    def port(self) -> int:
        if self._server is None or not self._server.sockets:
            raise RuntimeError("server is not listening")
        return self._server.sockets[0].getsockname()[1]

    @property
    def draining(self) -> bool:
        return self._draining

    async def _health_loop(self) -> None:
        """Poll ``db.health()`` and feed the write gate.

        Deliberately *not* on the executor: under saturation every executor
        thread is busy with admitted requests, and the gate must keep
        updating precisely then.  ``health()`` only reads counters.
        """
        while True:
            try:
                self.gate.observe(self.db.health())
            except Exception:
                self._m_unhandled.inc()
                self.unhandled_exceptions += 1
            await asyncio.sleep(self.config.health_interval)

    async def drain(self, timeout: float | None = None) -> bool:
        """Stop accepting, shed new requests, wait out in-flight work.

        Returns ``True`` when every in-flight request finished inside the
        bound.  Acknowledged commits are never dropped either way: a write
        is only acknowledged after it is durable, and the final log flush
        below persists anything still buffered.
        """
        timeout = self.config.drain_timeout if timeout is None else timeout
        self._draining = True
        self.recorder.record("service.drain", timeout=timeout)
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        deadline = time.monotonic() + timeout
        clean = True
        while self._inflight_requests > 0:
            if time.monotonic() >= deadline:
                clean = False
                break
            await asyncio.sleep(0.005)
        # Connections themselves may idle past the in-flight work; closing
        # them now is safe (no request is mid-execution unless we timed out).
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)
        loop = asyncio.get_running_loop()
        try:
            await loop.run_in_executor(self._executor, self.db.flush_all)
        except Exception:
            # A failing final flush cannot retract already-sent acks (they
            # were durable before being sent); it is not a drain failure.
            pass
        self.recorder.record("service.drained", clean=clean)
        return clean

    async def stop(self) -> None:
        """Drain (bounded) then release every resource; idempotent."""
        if self._stopped:
            return
        self._stopped = True
        await self.drain()
        if self._health_task is not None:
            self._health_task.cancel()
            try:
                await self._health_task
            except asyncio.CancelledError:
                pass
            self._health_task = None
        self._server = None
        self._executor.shutdown(wait=True)
        if self._prev_exemplars is not None:
            STATE.exemplars = self._prev_exemplars
            self._prev_exemplars = None
        self.unregister_metrics()

    def unregister_metrics(self) -> None:
        """Drop every callback gauge this server (and its admission
        controller and gate) registered; idempotent."""
        self.admission.unregister_metrics()
        self.gate.unregister_metrics()
        self.registry.unregister("service.draining")
        self.registry.unregister("service.up")

    # ------------------------------------------------------------------ #
    # connection handling                                                 #
    # ------------------------------------------------------------------ #

    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
            task.add_done_callback(self._conn_tasks.discard)
        if self._draining:
            await self._reject_connection(writer, "draining", "server is draining")
            return
        if not self.admission.try_connection():
            await self._reject_connection(
                writer, "connections", "connection limit reached"
            )
            return
        try:
            await self._serve_connection(reader, writer)
        except (asyncio.CancelledError, ConnectionError):
            pass
        except Exception:
            self._m_unhandled.inc()
            self.unhandled_exceptions += 1
        finally:
            self.admission.release_connection()
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, asyncio.CancelledError):
                pass

    async def _reject_connection(
        self, writer: asyncio.StreamWriter, code: str, message: str
    ) -> None:
        try:
            writer.write(protocol.encode_error(code, message))
            await writer.drain()
        except ConnectionError:
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, asyncio.CancelledError):
                pass

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        while True:
            try:
                frame = await protocol.read_frame(reader)
            except SerializationError as exc:
                writer.write(protocol.encode_error("bad_request", str(exc)))
                await writer.drain()
                return
            if frame is None:
                return
            kind, payload = frame
            if kind != protocol.KIND_REQUEST:
                writer.write(
                    protocol.encode_error(
                        "bad_request", f"expected request frame, got {kind!r}"
                    )
                )
                await writer.drain()
                return
            self._inflight_requests += 1
            try:
                response, lifecycle = await self._handle(payload)
            finally:
                self._inflight_requests -= 1
            try:
                write_began = perf_counter()
                writer.write(response)
                await writer.drain()
                lifecycle.stamp(
                    "response.write", write_began, perf_counter()
                )
            finally:
                self._complete(lifecycle)

    # ------------------------------------------------------------------ #
    # request handling                                                    #
    # ------------------------------------------------------------------ #

    async def _handle(
        self, payload: bytes
    ) -> tuple[bytes, RequestLifecycle]:
        started = time.monotonic()
        lifecycle = RequestLifecycle(next(self._request_ids))
        try:
            request = Request.decode(payload)
        except SerializationError as exc:
            return self._finish(lifecycle, "bad_request", str(exc))
        lifecycle.op = request.op
        lifecycle.tenant = request.tenant
        deadline_ms = (
            request.deadline_ms
            if request.deadline_ms is not None
            else self.config.default_deadline_ms
        )
        deadline = (
            started + deadline_ms / 1000.0 if deadline_ms is not None else None
        )
        if request.op == "ping":
            # Liveness probes bypass admission: they must answer precisely
            # when the server is saturated.
            return self._finish(
                lifecycle, None, None,
                protocol.encode_result(
                    {
                        "rows": 0, "op": "ping", "draining": self._draining,
                        "request_id": lifecycle.request_id,
                    }
                ),
            )
        if self._draining:
            return self._finish(
                lifecycle, "draining", "server is draining",
                terminal_phase="admission",
            )
        if request.op in protocol.WRITE_OPS and not self.gate.open:
            # Backpressure: writes shed while the engine is unhealthy,
            # reads below keep flowing.
            return self._finish(
                lifecycle, "degraded",
                f"writes rejected: {self.gate.reason or 'engine unhealthy'}",
                retry_after_ms=1000.0 * self.config.health_interval
                * self.gate.reopen_after,
                terminal_phase="admission",
            )
        try:
            ticket = await self.admission.admit(
                request.tenant, deadline, lifecycle=lifecycle
            )
        except ServiceOverload as exc:
            retry_after = getattr(exc, "retry_after", None)
            return self._finish(
                lifecycle, exc.reason, str(exc),
                retry_after_ms=retry_after * 1000.0 if retry_after else None,
                terminal_phase="admission",
            )
        loop = asyncio.get_running_loop()
        try:
            run = self._execute(request, deadline, lifecycle)
            response = await loop.run_in_executor(self._executor, run)
        except ServiceOverload as exc:
            return self._finish(lifecycle, exc.reason, str(exc))
        except SerializationError as exc:
            return self._finish(lifecycle, "bad_request", str(exc))
        except DegradedError as exc:
            return self._finish(lifecycle, "degraded", str(exc))
        except TwoPhaseInDoubt as exc:
            return self._finish(lifecycle, "unknown", str(exc))
        except TransactionAborted as exc:
            return self._finish(lifecycle, "aborted", str(exc))
        except ReproError as exc:
            return self._finish(lifecycle, "bad_request", str(exc))
        except Exception as exc:
            self._m_unhandled.inc()
            self.unhandled_exceptions += 1
            return self._finish(lifecycle, "internal", repr(exc))
        finally:
            ticket.release()
        if (
            deadline is not None
            and time.monotonic() >= deadline
            and request.op not in protocol.WRITE_OPS
        ):
            # Write-out enforcement: a read result arriving after its
            # deadline is dead weight — shed it instead of shipping bytes
            # nobody waits for.  Completed *writes* still report ok: the
            # commit is durable and the client must learn that.
            return self._finish(lifecycle, "deadline", "deadline expired")
        return self._finish(lifecycle, None, None, response)

    def _execute(
        self,
        request: Request,
        deadline: float | None,
        lifecycle: RequestLifecycle,
    ) -> Callable[[], bytes]:
        """Wrap the dispatched engine work with request attribution: the
        executor handoff (``slot_wait``), the lifecycle's thread binding,
        the root ``service.request`` span (whose trace id the envelope and
        exemplars carry), and the ``engine`` phase window that deep stamps
        (backoff, fsync waits, fragments, 2PC) are subtracted from."""
        work = self._dispatch(request, deadline, lifecycle)
        slot_granted = perf_counter()

        def run() -> bytes:
            lifecycle.stamp("slot_wait", slot_granted, perf_counter())
            with lifecycle.activate():
                with span(
                    "service.request",
                    self.recorder,
                    op=request.op,
                    tenant=request.tenant,
                    request_id=lifecycle.request_id,
                ):
                    lifecycle.trace_id = current_trace_id()
                    with lifecycle.phase("engine"):
                        return work()

        return run

    def _finish(
        self,
        lifecycle: RequestLifecycle,
        code: str | None,
        message: str | None,
        response: bytes | None = None,
        retry_after_ms: float | None = None,
        terminal_phase: str | None = None,
    ) -> tuple[bytes, RequestLifecycle]:
        lifecycle.finish(code or "ok", terminal_phase=terminal_phase)
        outcome = code or "ok"
        counter = self._m_responses.get(outcome)
        if counter is None:
            counter = self._m_responses[outcome] = self.registry.counter(
                "service.responses_total",
                "responses by outcome code",
                labels={"code": outcome},
            )
        counter.inc()
        if code is None:
            assert response is not None
            return response, lifecycle
        return (
            protocol.encode_error(
                code, message or code, retry_after_ms,
                request_id=lifecycle.request_id,
                trace_id=lifecycle.trace_hex,
            ),
            lifecycle,
        )

    def _complete(self, lifecycle: RequestLifecycle) -> None:
        """Post-write bookkeeping: seal the latency clock, feed the
        histogram (with the trace id as its exemplar) and the SLO tracker,
        journal a completion event, and stage the lifecycle in the
        recorder for ``/request/<id>``.  Pings stay out of the SLO and the
        journal's requests — they are liveness probes, not served work."""
        lifecycle.close()
        outcome = lifecycle.outcome or "unknown"
        self._m_latency.observe(
            lifecycle.total_seconds, exemplar=lifecycle.trace_hex
        )
        if lifecycle.op != "ping":
            self.db.slo.record(
                lifecycle.tenant,
                lifecycle.total_seconds,
                ok=outcome == "ok",
                shed=outcome in protocol.SHED_CODES,
            )
            self.recorder.add(lifecycle)
        self.recorder.record(
            "service.response",
            request_id=lifecycle.request_id,
            op=lifecycle.op,
            tenant=lifecycle.tenant,
            outcome=outcome,
            duration_seconds=lifecycle.total_seconds,
            trace_id=lifecycle.trace_id,
            dominant_phase=lifecycle.dominant_phase(),
        )

    # ------------------------------------------------------------------ #
    # engine work (executor threads)                                      #
    # ------------------------------------------------------------------ #

    def _dispatch(
        self,
        request: Request,
        deadline: float | None,
        lifecycle: RequestLifecycle,
    ) -> Callable[[], bytes]:
        op = request.op
        if op == "read":
            return lambda: self._do_read(request, lifecycle)
        if op == "scan":
            return lambda: self._do_scan(request, lifecycle)
        if op == "export":
            return lambda: self._do_export(request, lifecycle)
        if op == "write":
            return lambda: self._do_write(request, deadline, lifecycle)
        if op == "delete":
            return lambda: self._do_delete(request, deadline, lifecycle)
        raise SerializationError(f"unknown operation {op!r}")

    def _encode_result(
        self, lifecycle: RequestLifecycle, meta: dict[str, Any]
    ) -> bytes:
        """An ok header carrying the request's attribution handles."""
        meta = dict(meta)
        meta["request_id"] = lifecycle.request_id
        if lifecycle.trace_hex is not None:
            meta["trace_id"] = lifecycle.trace_hex
        return protocol.encode_result(meta)

    def _encode_payload(
        self, lifecycle: RequestLifecycle, meta: dict[str, Any],
        kind: bytes, payload: bytes,
    ) -> bytes:
        """An ok header, followed by the payload frame only when
        ``meta["rows"]`` is non-zero — the only case a client reads one."""
        header = self._encode_result(lifecycle, meta)
        if not meta["rows"]:
            return header
        return header + protocol.encode_frame(kind, payload)

    def _require(self, request: Request, *fields: str) -> None:
        for name in fields:
            if getattr(request, name) is None:
                raise SerializationError(f"operation {request.op!r} needs {name!r}")

    def _column_ids(self, info: Any, names: list[str] | None) -> list[int] | None:
        if names is None:
            return None
        return [info.column_id(name) for name in names]

    def _do_read(self, request: Request, lifecycle: RequestLifecycle) -> bytes:
        self._require(request, "table", "index", "key")
        with span("service.read", self.recorder, table=request.table):
            info = self.db.catalog.get(request.table)
            index = self.db.catalog.index(request.table, request.index)
            column_ids = self._column_ids(info, request.columns)
            with self.db.transaction() as txn:
                matches = index.lookup(txn, request.key, column_ids)
                self._record_txn(request, txn.txn_id)
            if column_ids is None:
                column_ids = list(range(len(info.columns)))
            columns = [[row.get(c) for _, row in matches] for c in column_ids]
        payload, count = postgres_wire.encode_columns(columns, len(matches))
        return self._encode_payload(
            lifecycle, {"rows": count, "format": "postgres_wire"},
            protocol.KIND_ROWS, payload,
        )

    def _do_scan(self, request: Request, lifecycle: RequestLifecycle) -> bytes:
        """One block walk per local table under the request's transaction.
        Each batch's selected columns are converted once, up to ``limit``,
        and every walk is closed before the rows are encoded, so encoding
        holds no pin.  ``limit=0`` opens no walk and answers zero rows."""
        self._require(request, "table")
        limit = request.limit
        with span("service.scan", self.recorder, table=request.table):
            info = self.db.catalog.get(request.table)
            column_ids = self._column_ids(info, request.columns)
            width = len(info.columns) if column_ids is None else len(column_ids)
            columns: list[list] = [[] for _ in range(width)]
            num_rows = 0
            with self.db.transaction() as txn:
                for local_txn, table in self.db.partitions(request.table, txn):
                    if num_rows == limit:
                        break
                    scanner = TableScanner(None, table, column_ids, txn=local_txn)
                    with closing(scanner.batches()) as batches:
                        for batch in batches:
                            taken = batch.selected_count
                            if limit is not None:
                                taken = min(taken, limit - num_rows)
                            values = scanner.batch_values(batch, taken)
                            for column, part in zip(columns, values):
                                column.extend(part)
                            num_rows += taken
                            if num_rows == limit:
                                break
                self._record_txn(request, txn.txn_id)
        payload, count = postgres_wire.encode_columns(columns, num_rows)
        return self._encode_payload(
            lifecycle, {"rows": count, "format": "postgres_wire"},
            protocol.KIND_ROWS, payload,
        )

    def _do_export(self, request: Request, lifecycle: RequestLifecycle) -> bytes:
        """Whole-table export as one Arrow IPC stream from the Flight
        encoder: frozen blocks ship their own buffers, hot blocks are read
        under one snapshot per shard (none when every block is frozen)."""
        self._require(request, "table")
        with span("service.export", self.recorder, table=request.table):
            tables = list(
                self.db.partitions(request.table, replica=lifecycle.request_id)
            )
            stream = flight.encode_blocks(
                tables[0][1].layout,
                [(tm, lambda table=table: table.blocks) for tm, table in tables],
            )
            for txn_id in stream.txn_ids or [None]:
                self._record_txn(request, txn_id)
        return self._encode_payload(
            lifecycle, {"rows": stream.rows, "format": "arrow_ipc"},
            protocol.KIND_ARROW, stream.payload,
        )

    def _do_write(
        self,
        request: Request,
        deadline: float | None,
        lifecycle: RequestLifecycle,
    ) -> bytes:
        """Upsert through an index key, retried on conflict within the
        request's deadline, acknowledged only once durable."""
        self._require(request, "table", "index", "key")
        if not request.values:
            raise SerializationError("operation 'write' needs non-empty 'values'")
        info = self.db.catalog.get(request.table)
        index = self.db.catalog.index(request.table, request.index)
        updates = {
            info.column_id(name): value for name, value in request.values.items()
        }
        committed: dict[str, Any] = {}

        def body(txn: Any) -> str:
            self._record_txn(request, txn.txn_id)
            matches = index.lookup(txn, request.key, [0])
            if matches:
                slot = matches[0][0]
                if not info.table.update(txn, slot, updates):
                    raise TransactionAborted("write-write conflict on update")
                committed["txn"] = txn
                return "updated"
            committed["txn"] = txn
            info.table.insert(txn, updates)
            return "inserted"

        with span(
            "service.write", self.recorder,
            table=request.table, tenant=request.tenant,
        ):
            action = retry_transaction(
                self.db, body, retries=self.config.retries, deadline=deadline
            )
            txn = committed["txn"]
            durable = txn.wait_durable(self._durability_budget(deadline))
        if not durable:
            # The commit record is written but not yet confirmed on the
            # device — reporting ok here could acknowledge a commit a crash
            # may still lose, so report the outcome as unknown.
            raise TwoPhaseInDoubt(
                "commit applied but durability confirmation timed out"
            )
        return self._encode_result(
            lifecycle,
            {"rows": 0, "action": action, "txn_id": txn.txn_id, "durable": True},
        )

    def _do_delete(
        self,
        request: Request,
        deadline: float | None,
        lifecycle: RequestLifecycle,
    ) -> bytes:
        self._require(request, "table", "index", "key")
        info = self.db.catalog.get(request.table)
        index = self.db.catalog.index(request.table, request.index)
        committed: dict[str, Any] = {}

        def body(txn: Any) -> int:
            self._record_txn(request, txn.txn_id)
            committed["txn"] = txn
            deleted = 0
            for slot, _ in index.lookup(txn, request.key, [0]):
                if not info.table.delete(txn, slot):
                    raise TransactionAborted("write-write conflict on delete")
                deleted += 1
            return deleted

        with span(
            "service.delete", self.recorder,
            table=request.table, tenant=request.tenant,
        ):
            deleted = retry_transaction(
                self.db, body, retries=self.config.retries, deadline=deadline
            )
            txn = committed["txn"]
            durable = txn.wait_durable(self._durability_budget(deadline))
        if not durable:
            raise TwoPhaseInDoubt(
                "commit applied but durability confirmation timed out"
            )
        return self._encode_result(
            lifecycle,
            {
                "rows": 0, "deleted": deleted,
                "txn_id": txn.txn_id, "durable": True,
            },
        )

    def _durability_budget(self, deadline: float | None) -> float:
        budget = self.config.durability_timeout
        if deadline is not None:
            # Even a tight deadline grants a small durability grace: the
            # alternative is answering "unknown" for commits that were a
            # millisecond from durable.
            budget = min(budget, max(0.05, deadline - time.monotonic()))
        return budget

    def _record_txn(self, request: Request, txn_id: int | None) -> None:
        """Link this request to the transaction it spawned in the journal
        (the span → txn edge the flight recorder's timeline view joins)."""
        self.recorder.record(
            "service.request",
            txn_id=txn_id,
            op=request.op,
            tenant=request.tenant,
            table=request.table,
        )


class ServerThread:
    """A :class:`TransactionalServer` on its own event-loop thread.

    The synchronous face of the service for tests, the CLI, and anything
    else that is not itself async: ``start()`` blocks until the port is
    bound, ``stop()`` runs the bounded drain.  The CLI's SIGTERM handler
    calls :meth:`request_drain` from the signal frame and joins.
    """

    def __init__(self, db: Engine, config: ServiceConfig | None = None) -> None:
        self.db = db
        self.config = config or ServiceConfig()
        self.server: TransactionalServer | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._started = threading.Event()
        self._start_error: BaseException | None = None

    def start(self) -> "ServerThread":
        if self._thread is not None:
            return self
        self._thread = threading.Thread(
            target=self._run, name="service", daemon=True
        )
        self._thread.start()
        self._started.wait()
        if self._start_error is not None:
            raise self._start_error
        return self

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop

        async def boot() -> None:
            try:
                self.server = TransactionalServer(self.db, self.config)
                await self.server.start()
            except BaseException as exc:  # surface bind errors to start()
                self._start_error = exc
            finally:
                self._started.set()

        loop.run_until_complete(boot())
        if self._start_error is None:
            loop.run_forever()
        pending = asyncio.all_tasks(loop)
        for task in pending:
            task.cancel()
        if pending:
            loop.run_until_complete(
                asyncio.gather(*pending, return_exceptions=True)
            )
        loop.close()

    @property
    def port(self) -> int:
        assert self.server is not None
        return self.server.port

    def request_drain(self) -> None:
        """Signal-safe: schedule the drain+stop on the server loop."""
        loop = self._loop
        if loop is not None:
            asyncio.run_coroutine_threadsafe(self._shutdown(), loop)

    async def _shutdown(self) -> None:
        if self.server is not None:
            await self.server.stop()
        assert self._loop is not None
        self._loop.stop()

    def stop(self, timeout: float | None = None) -> None:
        """Drain and join; idempotent."""
        thread = self._thread
        if thread is None:
            return
        self.request_drain()
        thread.join(timeout)
        self._thread = None

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
