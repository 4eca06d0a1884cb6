"""Arrow as a drop-in *wire protocol* over a conventional row engine.

Section 5's first option ("Improved Wire Protocol") and the closing point
of Section 6.3: adopting Arrow as the wire format helps — columnar batches
beat rows — but if the DBMS does not *store* data in Arrow it must still
serialize every value into the format, and that conversion dominates.
This module implements exactly that path: scan tuples transactionally,
build Arrow arrays value by value, and ship the IPC stream.  Comparing it
against the native Flight path isolates the benefit of Arrow-native
storage from the benefit of an Arrow wire format.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.arrowfmt import ipc
from repro.arrowfmt.table import Table
from repro.storage.data_table import DataTable, rowwise_scan
from repro.transform.arrow_view import rows_to_record_batch, table_schema

if TYPE_CHECKING:
    from repro.txn.manager import TransactionManager

#: Rows per record batch on the wire.
BATCH_ROWS = 4096


def export_arrow_wire(
    txn_manager: "TransactionManager", table: "DataTable"
) -> bytes:
    """Serialize the whole table into Arrow IPC *by value*.

    Every tuple is materialized through the Data Table API and appended to
    builders — the work a row-store DBMS adopting Arrow-on-the-wire would
    do, regardless of block temperature.
    """
    txn = txn_manager.begin()
    rows = [row.to_dict() for _, row in rowwise_scan(table, txn)]
    txn_manager.commit(txn)
    schema = table_schema(table.layout)
    batches = [
        rows_to_record_batch(table.layout, rows[start : start + BATCH_ROWS])
        for start in range(0, len(rows), BATCH_ROWS)
    ]
    return ipc.write_table(Table(schema, batches))


def client_receive(payload: bytes) -> Table:
    """Client side: identical to Flight's (the format is the same Arrow)."""
    return ipc.read_table(payload)
