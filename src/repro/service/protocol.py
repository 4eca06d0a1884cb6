"""The front-door wire protocol: framed requests over the existing codecs.

One connection carries a sequence of request/response exchanges.  Every
message is a frame — a one-byte kind tag plus a little-endian ``uint32``
payload length — exactly the envelope shape of the postgres v3 protocol
this repo's row codec already mimics:

``Q`` (request)
    A JSON document naming the operation (see :class:`Request`): point
    reads and scans, simple write transactions (upsert/delete through an
    index), whole-table Arrow-IPC export, and ping.

``R`` (result header)
    A JSON document: ``{"status": "ok", "rows": N, "format": ..., ...}``.
    When ``rows > 0`` it is followed by exactly one payload frame.

``D`` (row payload)
    A stream of DataRow messages as produced by
    :func:`repro.export.postgres_wire.encode_columns` — the same row codec
    (and the same per-value text cost) as the Figure 15 baseline.

``A`` (Arrow payload)
    An Arrow IPC stream from the Flight encoder
    (:func:`repro.export.flight.encode_blocks`): one schema header, then
    one record batch per non-empty block of every shard — frozen blocks
    ship their own buffers, hot blocks a snapshot materialized block at a
    time.

``E`` (error)
    A JSON document ``{"status": "error", "code": ..., "message": ...}``.
    Codes in :data:`SHED_CODES` are the explicit 503/too-busy family: the
    server rejected the request *fast* instead of queuing it unboundedly,
    and the client may retry after ``retry_after_ms``.

The deadline rides in the request (``deadline_ms``, relative — wire
clients and servers share no clock) and is enforced at admission, inside
the transaction retry loop, and on response write-out.

Every response envelope — ok headers and error bodies alike — carries the
server-assigned ``request_id`` and, when tracing is on, the hex
``trace_id`` of the request's root span.  Those are the handles the
observability endpoints resolve: ``/request/<id>`` returns the request's
critical-path breakdown, ``/events?request=<id>`` its journal slice, and
``/trace?trace=<id>`` its Chrome-trace waterfall.
"""

from __future__ import annotations

import asyncio
import json
import struct
from dataclasses import dataclass, field
from typing import Any

from repro.errors import SerializationError

_HEADER = struct.Struct("<cI")

#: Refuse to buffer absurd frames (a corrupt length prefix must not OOM
#: the server); Arrow exports of demo-sized tables stay far below this.
MAX_FRAME_BYTES = 64 * 1024 * 1024

KIND_REQUEST = b"Q"
KIND_RESULT = b"R"
KIND_ROWS = b"D"
KIND_ARROW = b"A"
KIND_ERROR = b"E"

_KNOWN_KINDS = (KIND_REQUEST, KIND_RESULT, KIND_ROWS, KIND_ARROW, KIND_ERROR)

#: The explicit-rejection family (the wire analogue of HTTP 503/429):
#: every code the admission controller, health gate, or drain path can
#: shed with.  Anything else under ``E`` is a request-level failure.
SHED_CODES = frozenset(
    {
        "too_busy",        # in-flight limit hit and the bounded queue is full
        "queue_timeout",   # queued, but a slot never freed inside the deadline
        "tenant_rate",     # per-tenant token bucket empty
        "connections",     # connection limit reached at accept
        "degraded",        # health gate: WAL backlog / degraded read-only mode
        "draining",        # SIGTERM received; server no longer admits work
        "deadline",        # the request's deadline expired before completion
    }
)

ERROR_CODES = SHED_CODES | {
    "bad_request",   # malformed frame or unknown operation/table/index
    "aborted",       # conflict aborts persisted across the retry budget
    "unknown",       # commit outcome unknown (durability wait timed out)
    "internal",      # unexpected server-side failure (counted, never silent)
}

OPS = ("ping", "read", "scan", "write", "delete", "export")

#: Ops the health gate applies to (reads keep flowing while writes shed).
WRITE_OPS = frozenset({"write", "delete"})


@dataclass(frozen=True)
class Request:
    """One decoded front-door request."""

    op: str
    table: str | None = None
    index: str | None = None
    key: tuple | None = None
    values: dict[str, Any] = field(default_factory=dict)
    columns: list[str] | None = None
    limit: int | None = None
    tenant: str = "default"
    deadline_ms: float | None = None

    def encode(self) -> bytes:
        body: dict[str, Any] = {"op": self.op}
        if self.table is not None:
            body["table"] = self.table
        if self.index is not None:
            body["index"] = self.index
        if self.key is not None:
            body["key"] = list(self.key)
        if self.values:
            body["values"] = self.values
        if self.columns is not None:
            body["columns"] = self.columns
        if self.limit is not None:
            body["limit"] = self.limit
        if self.tenant != "default":
            body["tenant"] = self.tenant
        if self.deadline_ms is not None:
            body["deadline_ms"] = self.deadline_ms
        return encode_frame(KIND_REQUEST, json.dumps(body).encode("utf-8"))

    @staticmethod
    def decode(payload: bytes) -> "Request":
        try:
            body = json.loads(payload)
        except ValueError as exc:
            raise SerializationError(f"request is not JSON: {exc}") from exc
        if not isinstance(body, dict):
            raise SerializationError("request must be a JSON object")
        op = body.get("op")
        if op not in OPS:
            raise SerializationError(f"unknown operation {op!r}")
        key = body.get("key")
        if key is not None:
            if not isinstance(key, list):
                raise SerializationError("'key' must be a JSON array")
            key = tuple(key)
        values = body.get("values") or {}
        if not isinstance(values, dict):
            raise SerializationError("'values' must be a JSON object")
        columns = body.get("columns")
        if columns is not None and not isinstance(columns, list):
            raise SerializationError("'columns' must be a JSON array")
        deadline_ms = body.get("deadline_ms")
        if deadline_ms is not None:
            if not isinstance(deadline_ms, (int, float)) or deadline_ms <= 0:
                raise SerializationError("'deadline_ms' must be a positive number")
        limit = body.get("limit")
        if limit is not None and (not isinstance(limit, int) or limit < 0):
            raise SerializationError("'limit' must be a non-negative integer")
        return Request(
            op=op,
            table=body.get("table"),
            index=body.get("index"),
            key=key,
            values=values,
            columns=columns,
            limit=limit,
            tenant=str(body.get("tenant", "default")),
            deadline_ms=deadline_ms,
        )


@dataclass
class Response:
    """One decoded response: a header plus at most one payload frame."""

    status: str                      # "ok" | "error"
    code: str | None = None          # error code (see ERROR_CODES)
    message: str | None = None
    meta: dict[str, Any] = field(default_factory=dict)
    payload_kind: bytes | None = None
    payload: bytes = b""
    retry_after_ms: float | None = None
    request_id: int | None = None    # server-assigned; resolves /request/<id>
    trace_id: str | None = None      # hex root-span id; resolves /trace?trace=

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @property
    def shed(self) -> bool:
        """Whether this is an explicit overload rejection (retryable)."""
        return self.status == "error" and self.code in SHED_CODES

    def rows(self) -> list[tuple]:
        """Decode a ``D`` payload through the postgres-wire row codec."""
        from repro.export import postgres_wire

        if self.payload_kind != KIND_ROWS:
            return []
        return postgres_wire.decode_rows(self.payload)

    def arrow_table(self):
        """Decode an ``A`` payload into an Arrow table."""
        from repro.arrowfmt import ipc

        if self.payload_kind != KIND_ARROW:
            raise SerializationError("response carries no Arrow payload")
        return ipc.read_table(self.payload)


def encode_frame(kind: bytes, payload: bytes) -> bytes:
    if len(payload) > MAX_FRAME_BYTES:
        raise SerializationError(f"frame of {len(payload)} bytes exceeds limit")
    return _HEADER.pack(kind, len(payload)) + payload


def encode_result(meta: dict[str, Any]) -> bytes:
    body = {"status": "ok", **meta}
    return encode_frame(KIND_RESULT, json.dumps(body).encode("utf-8"))


def encode_error(
    code: str,
    message: str,
    retry_after_ms: float | None = None,
    request_id: int | None = None,
    trace_id: str | None = None,
) -> bytes:
    body: dict[str, Any] = {"status": "error", "code": code, "message": message}
    if retry_after_ms is not None:
        body["retry_after_ms"] = retry_after_ms
    if request_id is not None:
        body["request_id"] = request_id
    if trace_id is not None:
        body["trace_id"] = trace_id
    return encode_frame(KIND_ERROR, json.dumps(body).encode("utf-8"))


async def read_frame(
    reader: asyncio.StreamReader,
) -> tuple[bytes, bytes] | None:
    """Read one frame; ``None`` on clean EOF at a frame boundary."""
    header = await reader.read(_HEADER.size)
    if not header:
        return None
    while len(header) < _HEADER.size:
        more = await reader.read(_HEADER.size - len(header))
        if not more:
            raise SerializationError("connection closed mid-frame-header")
        header += more
    kind, length = _HEADER.unpack(header)
    if kind not in _KNOWN_KINDS:
        raise SerializationError(f"unknown frame kind {kind!r}")
    if length > MAX_FRAME_BYTES:
        raise SerializationError(f"frame of {length} bytes exceeds limit")
    payload = await reader.readexactly(length) if length else b""
    return kind, payload


async def read_response(reader: asyncio.StreamReader) -> Response | None:
    """Read one full response (header + optional payload frame)."""
    frame = await read_frame(reader)
    if frame is None:
        return None
    kind, payload = frame
    try:
        body = json.loads(payload)
    except ValueError as exc:
        raise SerializationError(f"response header is not JSON: {exc}") from exc
    if kind == KIND_ERROR:
        return Response(
            status="error",
            code=body.get("code", "internal"),
            message=body.get("message"),
            retry_after_ms=body.get("retry_after_ms"),
            request_id=body.get("request_id"),
            trace_id=body.get("trace_id"),
        )
    if kind != KIND_RESULT:
        raise SerializationError(f"expected result frame, got {kind!r}")
    meta = {k: v for k, v in body.items() if k != "status"}
    response = Response(
        status="ok",
        meta=meta,
        request_id=meta.get("request_id"),
        trace_id=meta.get("trace_id"),
    )
    if meta.get("rows", 0):
        payload_frame = await read_frame(reader)
        if payload_frame is None:
            raise SerializationError("connection closed before payload frame")
        response.payload_kind, response.payload = payload_frame
    return response
