"""Crash recovery: replay the write-ahead log into fresh tables, block at a time.

Transactions whose commit record never reached the log are absent from the
stream by construction (the encoder emits nothing until commit), so replay
is a straight forward pass in commit order.  Nothing can observe the
tables while they are rebuilt, so replay does not re-run the logged
transactions one by one.  A batch of committed transactions runs as
one recovery transaction in three steps:

- **Fold.**  The operations are folded, in log order, into one final
  image per tuple inserted by the batch, keyed by its slot in the
  logging database: an insert starts an image, an update merges into it
  (last writer wins), a delete drops it.  Updates and deletes of tuples
  placed earlier (checkpoint rows, an earlier batch) go through
  ``table.update``/``table.delete`` instead.
- **Place.**  The surviving images are written with
  :meth:`~repro.storage.data_table.DataTable.place`: block by block, one
  vectorized write per column, as committed tuples without versions.
- **Index.**  Each index receives the placed rows' (key, slot) pairs in
  one call; a B+-tree inserts them as one sorted run.

Physical tuple slots from the previous incarnation are remapped to the
slots placement chose (:attr:`RecoveryManager.slot_map`).
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from typing import Any, Callable, Iterator, Mapping, Sequence

from repro.errors import RecoveryError
from repro.storage.data_table import DataTable
from repro.storage.tuple_slot import TupleSlot
from repro.txn.context import TransactionContext
from repro.txn.manager import TransactionManager
from repro.wal.records import LoggedOperation, decode_stream, decode_with_indoubt


@contextmanager
def _collector_paused() -> Iterator[None]:
    """Pause Python's cyclic garbage collector while a log is replayed.

    Replay builds one large object graph (decoded entries, folded images,
    index entries) that stays reachable until it returns, so a collection
    in the middle walks all of it and frees almost nothing.  On a 2-core
    box, one full collection landing inside the 0.15 s replay of a 0.8 MB
    log took about 40 ms.
    """
    if not gc.isenabled():
        yield
        return
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


class RecoveryManager:
    """Rebuilds table contents from a serialized log."""

    def __init__(
        self,
        txn_manager: TransactionManager,
        table_resolver: Callable[[str], DataTable] | Mapping[str, DataTable],
    ) -> None:
        self.txn_manager = txn_manager
        if callable(table_resolver):
            self._resolve = table_resolver
        else:
            tables = dict(table_resolver)

            def _lookup(name: str) -> DataTable:
                try:
                    return tables[name]
                except KeyError:
                    raise RecoveryError(f"log references unknown table {name!r}") from None

            self._resolve = _lookup
        #: Per table: old packed slot → new slot, for every live tuple
        #: placed so far (slots shift across incarnations).
        self.slot_map: dict[str, dict[int, TupleSlot]] = {}
        self.transactions_replayed = 0

    def replay(self, raw: bytes, tolerate_torn_tail: bool = False) -> int:
        """Apply every committed transaction in ``raw``; returns the count.

        ``tolerate_torn_tail=True`` drops a truncated final transaction
        (a crash mid-flush): its commit never became durable.
        """
        with _collector_paused():
            committed = decode_stream(raw, tolerate_torn_tail=tolerate_torn_tail)
            self._apply([logged.operations for logged in committed])
        return self.transactions_replayed

    def replay_with_indoubt(
        self, raw: bytes, tolerate_torn_tail: bool = True
    ) -> tuple[int, dict[str, list[LoggedOperation]]]:
        """Replay committed transactions and surface in-doubt prepares.

        Returns ``(committed_count, {gid: operations})`` where the mapping
        holds every prepared-but-undecided transaction in log order.  The
        caller resolves each against the coordinator log: a commit decision
        is applied via :meth:`apply_operations` (the retained ``slot_map``
        makes the prepared operations' old slots resolvable); anything
        else is presumed aborted and simply never applied.
        """
        with _collector_paused():
            committed, indoubt = decode_with_indoubt(
                raw, tolerate_torn_tail=tolerate_torn_tail
            )
            self._apply([logged.operations for logged in committed])
        return self.transactions_replayed, {
            prepare.gid: prepare.operations for prepare in indoubt
        }

    def apply_operations(self, operations: list[LoggedOperation]) -> None:
        """Apply one logged transaction's operations in a fresh commit."""
        self._apply([operations])

    def load(
        self, table_name: str, old_slots: Sequence[int], rows: Sequence[Mapping[int, Any]]
    ) -> None:
        """Place ``rows`` (a checkpoint's tuples, at packed ``old_slots``)
        in one committed transaction."""
        with self._transaction() as txn:
            self._place(txn, table_name, dict(zip(old_slots, rows)))

    def _apply(self, transactions: list[list[LoggedOperation]]) -> None:
        """Fold, place and index ``transactions`` under one recovery
        transaction."""
        with self._transaction() as txn:
            images: dict[str, dict[int, dict[int, Any]]] = {}
            for operations in transactions:
                for op in operations:
                    self._fold(txn, images, op)
            for table_name, table_images in images.items():
                self._place(txn, table_name, table_images)
        self.transactions_replayed += len(transactions)

    @contextmanager
    def _transaction(self) -> Iterator[TransactionContext]:
        """A recovery transaction: committed if the body succeeds, aborted
        (and the error re-raised) if the log does not apply."""
        txn = self.txn_manager.begin()
        try:
            yield txn
        except BaseException:
            self.txn_manager.abort(txn)
            raise
        self.txn_manager.commit(txn)

    def _fold(
        self,
        txn: TransactionContext,
        images: dict[str, dict[int, dict[int, Any]]],
        op: LoggedOperation,
    ) -> None:
        pending = images.get(op.table_name)
        if pending is None:
            self._resolve(op.table_name)  # an unknown table fails here
            pending = images[op.table_name] = {}
        placed = self.slot_map.setdefault(op.table_name, {})
        old = op.packed_slot
        image = pending.get(old)
        if op.op == "insert":
            if image is not None or old in placed:
                raise RecoveryError(
                    f"log inserts {op.slot} of table {op.table_name!r} while "
                    "it holds a live tuple"
                )
            pending[old] = dict(op.values)
        elif op.op == "update":
            if image is not None:
                image.update(op.values)
            elif not self._resolve(op.table_name).update(
                txn, self._placed(op, placed), op.values
            ):
                raise RecoveryError(
                    f"conflict replaying update of {op.slot} — the log "
                    "is not in commit order"
                )
        elif op.op == "delete":
            if image is not None:
                del pending[old]
            elif self._resolve(op.table_name).delete(txn, self._placed(op, placed)):
                del placed[old]
            else:
                raise RecoveryError(f"conflict replaying delete of {op.slot}")
        else:
            raise RecoveryError(f"unknown logged op {op.op!r}")

    def _placed(self, op: LoggedOperation, placed: dict[int, TupleSlot]) -> TupleSlot:
        try:
            return placed[op.packed_slot]
        except KeyError:
            raise RecoveryError(
                f"log touches {op.slot} of table {op.table_name!r} before inserting it; "
                "recovery requires a log that starts from an empty database "
                "(or a checkpoint, loaded first)"
            ) from None

    def _place(
        self, txn: TransactionContext, table_name: str, images: dict[int, dict[int, Any]]
    ) -> None:
        table = self._resolve(table_name)
        columns = set(range(table.layout.num_columns))
        for old, values in images.items():
            if values.keys() != columns:
                raise RecoveryError(
                    f"logged tuple {TupleSlot.unpack(old)} of table {table_name!r} "
                    f"has columns {sorted(values)}, not {sorted(columns)}"
                )
        slots = table.place(txn, list(images.values()))
        self.slot_map.setdefault(table_name, {}).update(zip(images, slots))
