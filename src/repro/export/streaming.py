"""Pipelined client-side RDMA with partial-availability messages (Section 5).

"The DBMS can send messages for partial availability of data periodically
to communicate whether it has already written some given chunk of data.
[...] the client can start working on partially available data,
effectively pipelining data processing."

The server pushes blocks one at a time; after each block lands in the
client's memory a small availability message follows, and the client
processes that chunk while the next transfer is in flight.  End-to-end
latency is therefore ``max(transfer, client work)`` per chunk instead of
their sum — the pipelining win this module measures.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterator

from repro.export.network import NetworkProfile, SimulatedNetwork
from repro.transform.arrow_view import BlockWalk

if TYPE_CHECKING:
    from repro.arrowfmt.table import RecordBatch
    from repro.storage.data_table import DataTable
    from repro.txn.manager import TransactionManager

#: Bytes of one partial-availability notification message.
AVAILABILITY_MESSAGE_BYTES = 64


@dataclass
class ChunkEvent:
    """One chunk landing in the client's memory."""

    index: int
    rows: int
    nbytes: int
    transfer_seconds: float
    available_at: float  # pipeline clock when the client may start reading


@dataclass
class PipelineResult:
    """Timing of a pipelined export."""

    chunks: list[ChunkEvent] = field(default_factory=list)
    total_rows: int = 0
    total_bytes: int = 0
    #: When the last transfer finished (server-side done).
    transfer_done_at: float = 0.0
    #: When the client finished processing the last chunk.
    client_done_at: float = 0.0
    #: What the same work would cost without overlap.
    unpipelined_seconds: float = 0.0

    @property
    def pipelining_speedup(self) -> float:
        """Unpipelined time over pipelined time (≥ 1 when overlap helps)."""
        if self.client_done_at == 0:
            return 1.0
        return self.unpipelined_seconds / self.client_done_at


def stream_blocks(
    txn_manager: "TransactionManager", table: "DataTable"
) -> "Iterator[RecordBatch]":
    """Yield one record batch per block (zero-copy when frozen); every hot
    block is read under the same snapshot.  Frozen blocks stay pinned until
    the generator is exhausted or closed: the batches alias their memory."""
    with BlockWalk(txn_manager, lambda: table.blocks) as walk:
        for block, frozen in walk:
            batch = walk.batch(block, frozen)
            if batch.num_rows:
                yield batch


def pipelined_rdma_export(
    txn_manager: "TransactionManager",
    table: "DataTable",
    client_work: Callable[["RecordBatch"], None],
    profile: NetworkProfile | None = None,
) -> PipelineResult:
    """Export with per-chunk availability messages and overlapped client work.

    ``client_work`` runs for real (its duration is measured); transfers are
    modeled on ``profile``.  The pipeline clock advances as
    ``available_at[i] = max(prev transfer end) + transfer[i]`` for the wire
    and the client consumes chunk *i* no earlier than it is available and
    no earlier than it finished chunk *i - 1*.
    """
    network = SimulatedNetwork(profile or NetworkProfile.RDMA_10_GBE)
    result = PipelineResult()
    wire_clock = 0.0
    client_clock = 0.0
    for index, batch in enumerate(stream_blocks(txn_manager, table)):
        nbytes = batch.nbytes()
        transfer = network.transmit(nbytes, 1)
        # The availability notification rides behind the chunk.
        transfer += network.transmit(AVAILABILITY_MESSAGE_BYTES, 1)
        wire_clock += transfer
        began = time.perf_counter()
        client_work(batch)
        work_seconds = time.perf_counter() - began
        start = max(wire_clock, client_clock)
        client_clock = start + work_seconds
        result.chunks.append(
            ChunkEvent(index, batch.num_rows, nbytes, transfer, wire_clock)
        )
        result.total_rows += batch.num_rows
        result.total_bytes += nbytes
        result.unpipelined_seconds += transfer + work_seconds
    result.transfer_done_at = wire_clock
    result.client_done_at = client_clock
    return result
