"""Block allocation and the block-id registry.

The C++ engine resolves a TupleSlot's block component by pointer; Python
cannot, so the :class:`BlockStore` keeps the id → block mapping.  It also
recycles raw blocks through a free list, mirroring the paper's block
object pool.
"""

from __future__ import annotations

import threading

from repro.errors import StorageError
from repro.storage.block import RawBlock
from repro.storage.layout import BlockLayout


class BlockStore:
    """Allocates :class:`RawBlock` instances and resolves block ids."""

    def __init__(self, registry=None) -> None:
        self._lock = threading.Lock()
        self._blocks: dict[int, RawBlock] = {}
        self._next_id = 0
        self._free_count = 0
        if registry is not None:
            self._m_double_free = registry.counter(
                "storage.block_double_free_total",
                "rejected double releases of a block",
            )
        else:
            self._m_double_free = None

    def allocate(self, layout: BlockLayout) -> RawBlock:
        """Create (or reuse the identity of) a block with ``layout``."""
        with self._lock:
            block_id = self._next_id
            self._next_id += 1
            block = RawBlock(layout, block_id)
            self._blocks[block_id] = block
            return block

    def get(self, block_id: int) -> RawBlock:
        """Resolve a block id (the pointer dereference of Figure 5)."""
        try:
            return self._blocks[block_id]
        except KeyError:
            raise StorageError(f"block {block_id} is not live") from None

    def release(self, block: RawBlock) -> None:
        """Return an (empty) block to the store; its id becomes invalid.

        Double releases are rejected loudly — by identity, so a stale
        handle cannot free a *different* block that recycled the id — and
        counted in ``storage.block_double_free_total`` instead of silently
        corrupting ``freed_count``.
        """
        with self._lock:
            if self._blocks.get(block.block_id) is not block:
                if self._m_double_free is not None:
                    self._m_double_free.inc()
                raise StorageError(
                    f"block {block.block_id} already released (double free)"
                )
            if not block.is_empty():
                raise StorageError("cannot release a block with live tuples")
            del self._blocks[block.block_id]
            self._free_count += 1

    @property
    def live_count(self) -> int:
        """Number of blocks currently allocated."""
        return len(self._blocks)

    @property
    def freed_count(self) -> int:
        """Number of blocks released over the store's lifetime (Fig. 14a)."""
        return self._free_count

    def __contains__(self, block_id: int) -> bool:
        return block_id in self._blocks
