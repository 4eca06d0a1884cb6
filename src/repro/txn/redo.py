"""Redo records and per-transaction redo buffers (Section 3.4).

Each transaction appends physical after-images of its changes to a private
redo buffer in the order they occur.  At commit a commit record is appended
and the whole buffer joins the log manager's flush queue; record order on
disk is implied by commit timestamps rather than log sequence numbers.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterator

from repro.storage.projection import ProjectedRow
from repro.storage.tuple_slot import TupleSlot

if TYPE_CHECKING:
    from repro.txn.context import TransactionContext

#: Modeled fixed overhead per redo record.
_RECORD_HEADER_BYTES = 24


class RedoRecord:
    """After-image of one operation, replayed by recovery."""

    __slots__ = ("table_name", "slot", "op", "after")

    UPDATE = "update"
    INSERT = "insert"
    DELETE = "delete"

    def __init__(
        self,
        table_name: str,
        slot: TupleSlot,
        op: str,
        after: ProjectedRow | None,
    ) -> None:
        self.table_name = table_name
        self.slot = slot
        self.op = op
        #: After-image values; ``None`` for deletes.
        self.after = after

    def modeled_size(self) -> int:
        """Bytes this record would occupy in the on-disk log body."""
        payload = 0
        if self.after is not None:
            for value in self.after.values():
                payload += len(value) + 4 if isinstance(value, (bytes, str)) else 8
        return _RECORD_HEADER_BYTES + payload


class CommitRecord:
    """Terminates a transaction's redo stream.

    Carries the durability callback the log manager must invoke after the
    next fsync (the paper embeds a function pointer in the record).  Read-
    only transactions also obtain one — required for correctness of the
    speculative-read rule — but the log manager skips writing it to disk.
    """

    __slots__ = ("commit_ts", "callback", "is_read_only")

    def __init__(
        self,
        commit_ts: int,
        callback: Callable[[], None] | None,
        is_read_only: bool,
    ) -> None:
        self.commit_ts = commit_ts
        self.callback = callback
        self.is_read_only = is_read_only

    def modeled_size(self) -> int:
        """Bytes on disk (zero for read-only commits, which are elided)."""
        return 0 if self.is_read_only else 16


class RedoBuffer:
    """Per-transaction append-only list of redo records.

    The paper limits each transaction to a single reusable buffer segment
    (flushing incrementally when full) and observes a speedup from cache
    reuse; we model the segment boundary purely for accounting.
    """

    def __init__(self, segment_size: int = 4096) -> None:
        self.segment_size = segment_size
        self._records: list[RedoRecord] = []
        self.commit_record: CommitRecord | None = None
        self.flushed_segments = 0
        self._segment_used = 0

    def append(self, record: RedoRecord) -> None:
        """Append one after-image record."""
        size = record.modeled_size()
        if self._segment_used + size > self.segment_size:
            # Incremental pre-commit flush of a full segment (Section 3.4).
            self.flushed_segments += 1
            self._segment_used = 0
        self._segment_used += min(size, self.segment_size)
        self._records.append(record)

    def seal(self, commit_record: CommitRecord) -> None:
        """Attach the commit record, completing the stream."""
        self.commit_record = commit_record

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[RedoRecord]:
        return iter(self._records)

    def modeled_bytes(self) -> int:
        """Total modeled bytes of the stream, commit record included."""
        total = sum(r.modeled_size() for r in self._records)
        if self.commit_record is not None:
            total += self.commit_record.modeled_size()
        return total
