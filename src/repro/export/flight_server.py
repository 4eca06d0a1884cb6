"""A Flight-style RPC service surface over the export layer.

Arrow Flight structures bulk data access as: ``list_flights`` (what is
available), ``get_schema``, and ``do_get(ticket)`` (stream the data).  This
module reproduces that call pattern over the engine so downstream tools
program against a service, not against engine internals.  Tickets can name
a whole table or a block range, enabling partitioned parallel consumption
— the "client fetches shards concurrently" pattern Flight was designed for.

This module is the in-process codec/ticket layer only.  To actually serve
tables over a network socket, use the transactional front door
(:mod:`repro.service`): ``python -m repro.service serve`` exposes the same
Arrow-IPC stream as the ``export`` operation — with admission control,
health-gated writes, deadlines, and graceful drain — and
``python -m repro.service loadgen`` drives it open-loop.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator

from repro.arrowfmt import ipc
from repro.arrowfmt.table import Table
from repro.errors import SerializationError
from repro.export.flight import encode_blocks
from repro.transform.arrow_view import table_schema

if TYPE_CHECKING:
    from repro.db import Database


@dataclass(frozen=True)
class FlightTicket:
    """Names a retrievable stream: a table, optionally a block range."""

    table: str
    block_start: int = 0
    block_count: int | None = None  # None = to the end

    def encode(self) -> bytes:
        """Opaque wire form of the ticket."""
        return json.dumps(
            {"table": self.table, "start": self.block_start, "count": self.block_count}
        ).encode("utf-8")

    @staticmethod
    def decode(raw: bytes) -> "FlightTicket":
        try:
            spec = json.loads(raw)
            return FlightTicket(spec["table"], spec["start"], spec["count"])
        except (ValueError, KeyError, TypeError) as exc:
            raise SerializationError(f"bad flight ticket: {exc}") from exc


@dataclass
class FlightInfo:
    """What ``list_flights`` advertises per table."""

    table: str
    total_rows: int
    total_blocks: int
    endpoints: list[FlightTicket]


class FlightServer:
    """The server side: catalog discovery and ticket-driven streams."""

    def __init__(self, db: "Database", partition_blocks: int = 8) -> None:
        self.db = db
        #: Blocks per advertised endpoint; clients fetch endpoints in
        #: parallel.
        self.partition_blocks = max(1, partition_blocks)

    def list_flights(self) -> list[FlightInfo]:
        """Advertise every table with partitioned endpoints."""
        flights = []
        for name in self.db.catalog.table_names():
            table = self.db.catalog.table(name)
            block_count = len(table.blocks)
            endpoints = [
                FlightTicket(name, start, min(self.partition_blocks, block_count - start))
                for start in range(0, block_count, self.partition_blocks)
            ] or [FlightTicket(name, 0, 0)]
            flights.append(
                FlightInfo(name, table.live_tuple_count(), block_count, endpoints)
            )
        return flights

    def get_schema(self, table_name: str) -> bytes:
        """Serialized schema for a table."""
        layout = self.db.catalog.table(table_name).layout
        return json.dumps(table_schema(layout).to_json()).encode("utf-8")

    def do_get(self, ticket: FlightTicket | bytes) -> bytes:
        """Stream the data a ticket names (Arrow IPC bytes).

        Frozen blocks ship zero-copy; hot blocks in the range are
        materialized transactionally, exactly as in Section 5.
        """
        if isinstance(ticket, bytes):
            ticket = FlightTicket.decode(ticket)
        table = self.db.catalog.table(ticket.table)
        end = (
            None
            if ticket.block_count is None
            else ticket.block_start + ticket.block_count
        )
        return encode_blocks(
            table.layout,
            [(self.db.txn_manager, lambda: table.blocks[ticket.block_start : end])],
        ).payload


class FlightClient:
    """The client side: discovery + (optionally sharded) retrieval."""

    def __init__(self, server: FlightServer) -> None:
        self.server = server

    def fetch_table(self, table_name: str) -> Table:
        """Fetch all endpoints of a table and concatenate the streams."""
        flights = {f.table: f for f in self.server.list_flights()}
        try:
            info = flights[table_name]
        except KeyError:
            raise SerializationError(f"no flight for table {table_name!r}") from None
        parts = [
            ipc.read_table(self.server.do_get(endpoint))
            for endpoint in info.endpoints
        ]
        return Table.concat(parts)

    def iter_batches(self, table_name: str) -> Iterator:
        """Stream batches endpoint by endpoint."""
        for f in self.server.list_flights():
            if f.table != table_name:
                continue
            for endpoint in f.endpoints:
                for batch in ipc.read_table(self.server.do_get(endpoint)).batches:
                    yield batch
            return
        raise SerializationError(f"no flight for table {table_name!r}")
