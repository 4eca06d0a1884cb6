"""Client-side RDMA export (Section 5, "Shipping Data with RDMA").

The server writes block buffers straight into the client's memory: no
serialization, no wire format, no client parsing — the NIC is the only
bottleneck for frozen blocks.  Hot blocks must still be materialized
transactionally before the NIC can read them, and because the NIC bypasses
the CPU cache the freshly materialized buffers are transferred slightly
slower than Flight would send them (the effect Section 6.3 observes).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.transform.arrow_view import BlockWalk

if TYPE_CHECKING:
    from repro.storage.data_table import DataTable
    from repro.txn.manager import TransactionManager

#: Relative slowdown for DMA out of freshly-written (cache-resident) data:
#: the NIC reads DRAM, missing the materialized block in cache.
CACHE_BYPASS_PENALTY = 1.10


@dataclass
class RdmaTransfer:
    """One modeled RDMA bulk export."""

    frozen_bytes: int
    materialized_bytes: int
    frozen_blocks: int
    materialized_blocks: int

    @property
    def total_bytes(self) -> int:
        """Bytes landed in the client's memory."""
        return self.frozen_bytes + self.materialized_bytes

    @property
    def effective_bytes(self) -> float:
        """Bytes weighted by the cache-bypass penalty on hot data, used to
        compute NIC transfer time."""
        return self.frozen_bytes + self.materialized_bytes * CACHE_BYPASS_PENALTY


def export_rdma(
    txn_manager: "TransactionManager", table: "DataTable"
) -> RdmaTransfer:
    """Compute the buffers an RDMA export would push to the client.

    Frozen blocks are read in place under the reader counter; hot blocks
    pay a transactional materialization under one snapshot for the whole
    export (real CPU work happens here — the caller times it), after which
    their byte counts are charged at the cache-bypass rate.
    """
    transfer = RdmaTransfer(0, 0, 0, 0)
    with BlockWalk(txn_manager, lambda: table.blocks) as walk:
        for block, frozen in walk:
            nbytes = walk.batch(block, frozen).nbytes()
            if frozen:
                transfer.frozen_bytes += nbytes
                transfer.frozen_blocks += 1
            else:
                transfer.materialized_bytes += nbytes
                transfer.materialized_blocks += 1
    return transfer
