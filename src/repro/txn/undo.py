"""Undo (delta) records (Section 3.1).

Undo records are physical before-images of the attributes a transaction
modified, stored newest-to-oldest on each tuple's version chain.  They live
in the transaction's undo buffer, a plain list in write order:
the version chain points at the record objects themselves, and Python
objects never move, so the paper's linked fixed-size segments (which keep
C++ records from moving as the buffer grows) have nothing to do here.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.storage.projection import ProjectedRow
from repro.storage.tuple_slot import TupleSlot
from repro.txn.timestamps import ABORTED_TIMESTAMP, is_aborted, is_uncommitted

if TYPE_CHECKING:
    from repro.storage.data_table import DataTable
    from repro.txn.context import TransactionContext


class UndoRecord:
    """Base class: one link of a tuple's version chain."""

    __slots__ = ("timestamp", "table", "slot", "next", "txn")

    def __init__(
        self,
        txn: "TransactionContext",
        table: "DataTable",
        slot: TupleSlot,
    ) -> None:
        #: Flagged txn id while in flight; commit timestamp after commit;
        #: the aborted sentinel after rollback.
        self.timestamp = txn.txn_id
        self.table = table
        self.slot = slot
        #: Next-older record on the version chain.
        self.next: UndoRecord | None = None
        #: The writer, for the own-writes rule of :meth:`is_visible_to`.
        #: The garbage collector clears it when it unlinks the record, so
        #: a finished transaction (whose undo buffer holds this record) is
        #: freed by reference counting, not left to the cyclic collector.
        self.txn: "TransactionContext | None" = txn

    @property
    def aborted(self) -> bool:
        """Whether the owning transaction rolled back."""
        return is_aborted(self.timestamp)

    def mark_aborted(self) -> None:
        """Stamp the aborted sentinel (after in-place state is restored).

        This is the paper's fix for the A-B-A race on aborts: the record is
        "committed" with a timestamp that makes it invisible to everyone,
        *after* restoring the correct version, rather than being unlinked.
        """
        self.timestamp = ABORTED_TIMESTAMP

    def is_visible_to(self, txn: "TransactionContext") -> bool:
        """Visibility per Section 3.1: own records always; otherwise the
        record's timestamp must be committed and ≤ the reader's start
        (unsigned comparison makes flagged ids never visible)."""
        if self.txn is txn and not self.aborted:
            return True
        if is_uncommitted(self.timestamp) or self.aborted:
            return False
        return self.timestamp <= txn.start_ts

    def undo_presence(self, present: bool) -> bool:
        """Roll the tuple's logical existence back across this record."""
        return present

    def apply_before_image(self, row: ProjectedRow) -> None:
        """Overwrite ``row`` with this record's before-image, if any."""


class UpdateUndoRecord(UndoRecord):
    """Before-image of an in-place attribute update."""

    __slots__ = ("before", "before_raw")

    def __init__(
        self,
        txn: "TransactionContext",
        table: "DataTable",
        slot: TupleSlot,
        before: ProjectedRow,
        before_raw: dict[int, bytes],
    ) -> None:
        super().__init__(txn, table, slot)
        #: Logical before-image, applied during version-chain traversal.
        self.before = before
        #: Raw 16-byte varlen entries (column id → bytes) captured before the
        #: update, used for exact rollback and for deferred heap frees.
        self.before_raw = before_raw

    def apply_before_image(self, row: ProjectedRow) -> None:
        self.before.apply_onto(row)


class InsertUndoRecord(UndoRecord):
    """Marks a slot as created by this transaction (before-image: absent)."""

    __slots__ = ()

    def undo_presence(self, present: bool) -> bool:
        return False


class DeleteUndoRecord(UndoRecord):
    """Marks a slot as deleted by this transaction (before-image: present).

    Deletes flip the allocation bitmap, not tuple contents (Section 3.1),
    so older snapshots that roll the delete back still find the attribute
    bytes in place.
    """

    __slots__ = ()

    def undo_presence(self, present: bool) -> bool:
        return True
