"""Server-side RDMA: clients read the DBMS's memory under leases (Section 5).

The paper sketches — without building — the hard variant of RDMA export:
the *client* reads the server's block memory directly, bypassing the DBMS
CPU entirely.  The two challenges it names are implemented here:

1. **Access control without a CPU in the loop**: the DBMS "has to implement
   some form of a lease system to invalidate readers" — a write to a leased
   block must wait until the lease expires (bounded staleness) instead of a
   round trip to the client.  :class:`LeaseManager` grants time-bounded
   read leases on FROZEN blocks and makes writers wait out unexpired
   leases before reheating a block.
2. **Address discovery**: the client "knows beforehand the address of the
   blocks it needs" via a directory RPC — :meth:`RdmaDirectory.describe`
   returns block ids, byte sizes, and lease grants.

Time is injectable (a callable clock) so tests drive lease expiry
deterministically.

Like :mod:`repro.export.flight_server`, this is a codec/protocol layer,
not a network server; the socket-facing entry point for exports is the
transactional front door (``python -m repro.service serve``, operation
``export``), which layers admission control and graceful drain on top of
these same mechanisms.
"""

from __future__ import annotations

import threading
import time as _time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.errors import StorageError
from repro.storage.constants import BlockState
from repro.transform.arrow_view import frozen_batch

if TYPE_CHECKING:
    from repro.storage.block import RawBlock
    from repro.storage.data_table import DataTable

#: Default lease duration in (simulated) seconds.
DEFAULT_LEASE_SECONDS = 0.05


@dataclass(frozen=True)
class Lease:
    """A time-bounded grant to read one frozen block remotely."""

    block_id: int
    expires_at: float
    nbytes: int


class LeaseManager:
    """Grants and enforces read leases on frozen blocks.

    Writers call :meth:`wait_for_block` before reheating; the call blocks
    until every unexpired lease on the block has run out — the bounded
    write-latency cost the paper predicts for server-side RDMA.
    """

    def __init__(
        self,
        lease_seconds: float = DEFAULT_LEASE_SECONDS,
        clock: Callable[[], float] | None = None,
    ) -> None:
        self.lease_seconds = lease_seconds
        self.clock = clock or _time.monotonic
        self._lock = threading.Lock()
        self._leases: dict[int, float] = {}  # block id -> latest expiry
        self.grants = 0
        self.writer_waits = 0

    def grant(self, block: "RawBlock") -> Lease:
        """Lease a FROZEN block for reading; raises if the block is hot."""
        if block.state is not BlockState.FROZEN:
            raise StorageError(
                f"cannot lease block {block.block_id} in state {block.state.name}"
            )
        expires = self.clock() + self.lease_seconds
        with self._lock:
            self._leases[block.block_id] = max(
                self._leases.get(block.block_id, 0.0), expires
            )
            self.grants += 1
        return Lease(block.block_id, expires, block.layout.used_bytes)

    def lease_remaining(self, block_id: int) -> float:
        """Seconds until the last lease on ``block_id`` expires (≤ 0 = none)."""
        with self._lock:
            return self._leases.get(block_id, 0.0) - self.clock()

    def wait_for_block(self, block_id: int, poll: float = 0.001) -> float:
        """Block the caller until no unexpired lease remains.

        Returns the seconds waited (0.0 when the block was unleased).
        """
        waited = 0.0
        remaining = self.lease_remaining(block_id)
        if remaining > 0:
            with self._lock:
                self.writer_waits += 1
        while remaining > 0:
            if self.clock is _time.monotonic:
                _time.sleep(min(poll, remaining))
            waited += remaining if self.clock is not _time.monotonic else 0.0
            if self.clock is not _time.monotonic:
                # Injected clocks advance externally; bail out to caller.
                break
            remaining = self.lease_remaining(block_id)
        return waited


class RdmaDirectory:
    """The discovery RPC: block addresses + lease grants for one table."""

    def __init__(self, table: "DataTable", leases: LeaseManager) -> None:
        self.table = table
        self.leases = leases

    def describe(self) -> list[Lease]:
        """Lease every currently-frozen block and return the grants.

        Hot blocks are *not* advertised: server-side RDMA has no way to
        materialize for the client, so the client must fall back to another
        mechanism for them (the paper's hybrid reality).
        """
        grants = []
        for block in list(self.table.blocks):
            if block.state is BlockState.FROZEN:
                grants.append(self.leases.grant(block))
        return grants

    def read_block(self, block_id: int):
        """What the NIC would DMA: the block's Arrow view, CPU untouched.

        Reading requires an unexpired lease; a stale client is refused
        (its lease lapsed and the block may have been reheated).
        """
        if self.leases.lease_remaining(block_id) <= 0:
            raise StorageError(f"lease on block {block_id} expired")
        block = self.table._block(block_id)
        if not block.begin_frozen_read():
            raise StorageError(
                f"block {block_id} was reheated despite an active lease"
            )
        try:
            return frozen_batch(block)
        finally:
            block.end_frozen_read()


def guarded_touch_hot(
    block: "RawBlock", leases: LeaseManager
) -> float:
    """The writer-side protocol: wait out leases, then reheat.

    Returns seconds spent waiting on leases — the write-latency tax of
    server-side RDMA that Section 5 warns about.
    """
    waited = leases.wait_for_block(block.block_id)
    block.touch_hot()
    return waited
