"""Multi-version concurrency control (Section 3.1).

The engine is a multi-versioned delta store: blocks hold the newest version
in place, and each tuple's version chain — newest to oldest — hangs off the
Arrow-invisible version-pointer column, pointing at before-image delta
records that live inside transaction-private undo buffers.  Snapshot
isolation comes from sign-bit-flagged timestamps compared unsigned, so
uncommitted versions are never visible to other transactions.
"""

from repro.txn.timestamps import (
    NULL_TIMESTAMP,
    UNCOMMITTED_FLAG,
    TimestampManager,
    is_aborted,
    is_uncommitted,
)
from repro.txn.undo import (
    DeleteUndoRecord,
    InsertUndoRecord,
    UndoRecord,
    UpdateUndoRecord,
)
from repro.txn.redo import RedoRecord
from repro.txn.context import TransactionContext
from repro.txn.manager import TransactionManager

__all__ = [
    "DeleteUndoRecord",
    "InsertUndoRecord",
    "NULL_TIMESTAMP",
    "RedoRecord",
    "TimestampManager",
    "TransactionContext",
    "TransactionManager",
    "UNCOMMITTED_FLAG",
    "UndoRecord",
    "UpdateUndoRecord",
    "is_aborted",
    "is_uncommitted",
]
