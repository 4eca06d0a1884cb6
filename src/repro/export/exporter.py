"""The unified export API: one table out, five ways (Figure 15 + §5).

``TableExporter.export(method)`` runs the full server-side path (real CPU
work: transactional materialization where needed, wire-format conversion
where the protocol demands it), models the network transfer, runs the real
client-side parse, and reports a throughput figure comparable across
methods.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Literal

from repro.errors import SerializationError
from repro.export import flight as flight_mod
from repro.fault.crashpoints import crash_point
from repro.export import postgres_wire, rdma, vectorized
from repro.export.network import NetworkProfile, SimulatedNetwork
from repro.obs import trace
from repro.obs.registry import DEFAULT_SIZE_BUCKETS, STATE, MetricRegistry

if TYPE_CHECKING:
    from repro.storage.data_table import DataTable
    from repro.txn.manager import TransactionManager

ExportMethod = Literal["postgres", "vectorized", "arrow-wire", "flight", "rdma"]

#: Messages per Flight/RDMA block and rows per row-protocol message are
#: protocol facts the wire model needs.
_VECTORIZED_BATCH_ROWS = vectorized.DEFAULT_BATCH_ROWS


@dataclass
class ExportResult:
    """Timing breakdown of one export run."""

    method: str
    payload_bytes: int
    wire_bytes: int
    serialization_seconds: float
    wire_seconds: float
    client_seconds: float
    rows: int

    @property
    def total_seconds(self) -> float:
        """End-to-end time: server CPU + wire + client CPU."""
        return self.serialization_seconds + self.wire_seconds + self.client_seconds

    @property
    def throughput_mb_per_sec(self) -> float:
        """Payload megabytes per second of end-to-end time."""
        if self.total_seconds == 0:
            return float("inf")
        return self.payload_bytes / 1e6 / self.total_seconds


class TableExporter:
    """Exports one table through any of the five mechanisms."""

    def __init__(
        self,
        txn_manager: "TransactionManager",
        table: "DataTable",
        profile: NetworkProfile | None = None,
        rdma_profile: NetworkProfile | None = None,
        registry: MetricRegistry | None = None,
    ) -> None:
        self.txn_manager = txn_manager
        self.table = table
        self.profile = profile or NetworkProfile.TEN_GBE
        self.rdma_profile = rdma_profile or NetworkProfile.RDMA_10_GBE
        if registry is None:
            from repro import obs

            registry = obs.get_registry()
        self.registry = registry

    def export(self, method: ExportMethod) -> ExportResult:
        """Run one export; returns its timing breakdown.

        An export failure never corrupts engine state (exports only read a
        snapshot), but it is counted (``export.failures_total``) and
        re-raised so the serving layer can drop the client cleanly.
        """
        crash_point("export.serialize")
        recorder = self.txn_manager.recorder
        try:
            with trace.span(f"export.{method}", recorder):
                if method == "postgres":
                    result = self._export_postgres()
                elif method == "vectorized":
                    result = self._export_vectorized()
                elif method == "arrow-wire":
                    result = self._export_arrow_wire()
                elif method == "flight":
                    result = self._export_flight()
                elif method == "rdma":
                    result = self._export_rdma()
                else:
                    raise SerializationError(f"unknown export method {method!r}")
        except Exception as exc:
            self.registry.counter(
                "export.failures_total", "export runs ended by an error"
            ).inc()
            recorder.record(
                "export.failed",
                method=method,
                table=self.table.name,
                error=type(exc).__name__,
            )
            raise
        self._record(result)
        recorder.record(
            "export.serve",
            method=method,
            table=self.table.name,
            rows=result.rows,
            wire_bytes=result.wire_bytes,
            duration_seconds=result.total_seconds,
        )
        return result

    def _record(self, result: ExportResult) -> None:
        """Per-protocol bytes and serialization time into the registry."""
        if not STATE.enabled:
            return
        reg = self.registry
        slug = result.method.replace("-", "_")
        reg.counter("export.exports_total", "export runs, all protocols").inc()
        reg.counter(
            f"export.{slug}_wire_bytes", f"{result.method} bytes put on the wire"
        ).inc(result.wire_bytes)
        reg.counter(
            f"export.{slug}_payload_bytes", f"{result.method} payload bytes exported"
        ).inc(result.payload_bytes)
        reg.histogram(
            f"export.{slug}_serialization_seconds",
            f"{result.method} server-side serialization time",
        ).observe(result.serialization_seconds)
        reg.histogram(
            "export.serialization_seconds",
            "server-side serialization time, all protocols",
        ).observe(result.serialization_seconds)
        reg.histogram(
            "export.wire_bytes_per_run",
            "wire bytes per export run",
            buckets=DEFAULT_SIZE_BUCKETS,
        ).observe(result.wire_bytes)
        reg.gauge(
            "export.last_throughput_mb_per_sec",
            "end-to-end throughput of the most recent export",
        ).set(result.throughput_mb_per_sec)

    # ------------------------------------------------------------------ #
    # method implementations                                              #
    # ------------------------------------------------------------------ #

    def _scan_columns(self) -> list[list]:
        """The table's columns as Python lists, read through the vectorized
        scan and converted per batch by ``TableScanner.batch_values`` (the
        values ``DataTable.select`` returns, as the service's ``scan``).

        Frozen blocks stream straight off the Arrow buffers; hot blocks go
        through the block-at-a-time MVCC snapshot — much cheaper than the
        per-tuple ``DataTable.select`` loop the row protocols used to pay."""
        from repro.query.scan import TableScanner

        scanner = TableScanner(self.txn_manager, self.table, registry=self.registry)
        columns: list[list] = [[] for _ in scanner.column_ids]
        for batch in scanner.batches():
            for column, values in zip(columns, scanner.batch_values(batch)):
                column.extend(values)
        return columns

    def _payload_bytes(self, columns: list[list]) -> int:
        total = 0
        for column in columns:
            for value in column:
                if value is None:
                    continue
                if isinstance(value, (bytes, str)):
                    total += len(value)
                else:
                    total += 8
        return total

    def _export_postgres(self) -> ExportResult:
        began = time.perf_counter()
        columns = self._scan_columns()
        raw, messages = postgres_wire.encode_columns(columns)
        serialization = time.perf_counter() - began
        network = SimulatedNetwork(self.profile)
        wire = network.transmit(len(raw), messages)
        began = time.perf_counter()
        decoded = postgres_wire.decode_rows(raw)
        client = time.perf_counter() - began
        return ExportResult(
            "postgres", self._payload_bytes(columns), len(raw), serialization, wire,
            client, len(decoded),
        )

    def _export_vectorized(self) -> ExportResult:
        began = time.perf_counter()
        columns = self._scan_columns()
        rows = len(columns[0])
        raw, batches = vectorized.encode_table(columns) if rows else (b"", 0)
        serialization = time.perf_counter() - began
        network = SimulatedNetwork(self.profile)
        wire = network.transmit(len(raw), batches)
        began = time.perf_counter()
        decoded = vectorized.decode_table(raw) if raw else columns
        client = time.perf_counter() - began
        rows_out = len(decoded[0]) if decoded else 0
        return ExportResult(
            "vectorized", self._payload_bytes(columns), len(raw), serialization, wire,
            client, rows_out,
        )

    def _export_arrow_wire(self) -> ExportResult:
        from repro.export import arrow_wire

        began = time.perf_counter()
        payload = arrow_wire.export_arrow_wire(self.txn_manager, self.table)
        serialization = time.perf_counter() - began
        network = SimulatedNetwork(self.profile)
        batches = max(1, len(payload) // (1 << 16))
        wire = network.transmit(len(payload), batches)
        began = time.perf_counter()
        received = arrow_wire.client_receive(payload)
        client = time.perf_counter() - began
        return ExportResult(
            "arrow-wire", len(payload), len(payload), serialization, wire,
            client, received.num_rows,
        )

    def _export_flight(self) -> ExportResult:
        began = time.perf_counter()
        stream = flight_mod.export_stream(self.txn_manager, self.table)
        serialization = time.perf_counter() - began
        network = SimulatedNetwork(self.profile)
        wire = network.transmit(len(stream.payload), max(stream.batches, 1))
        began = time.perf_counter()
        received = flight_mod.client_receive(stream.payload)
        client = time.perf_counter() - began
        return ExportResult(
            "flight", len(stream.payload), len(stream.payload), serialization, wire,
            client, received.num_rows,
        )

    def _export_rdma(self) -> ExportResult:
        began = time.perf_counter()
        transfer = rdma.export_rdma(self.txn_manager, self.table)
        serialization = time.perf_counter() - began  # materialization only
        network = SimulatedNetwork(self.rdma_profile)
        wire = network.transmit(
            int(transfer.effective_bytes),
            transfer.frozen_blocks + transfer.materialized_blocks,
        )
        # The client's CPU is idle during RDMA; data lands ready to use.
        return ExportResult(
            "rdma", transfer.total_bytes, transfer.total_bytes, serialization, wire,
            0.0, -1,
        )
