"""Golden bytes for the on-disk log format.

The encoder may change how it builds a record, never what it writes: a
log written by one build must recover under the next.  The hex below was
captured from the original ``io.BytesIO`` encoder, and the redo stream
covers every value tag (NULL, both INT64 extremes, UINT64 values at and
above 2**63, FLOAT including NaN, BOOL, BYTES, non-ASCII STR, empty
varlens), numpy scalars, and all three operations on two tables.
"""

import math

import numpy as np
import pytest

from repro.errors import RecoveryError
from repro.storage.projection import ProjectedRow
from repro.storage.tuple_slot import TupleSlot
from repro.txn.context import TransactionContext
from repro.txn.redo import RedoRecord
from repro.wal.records import (
    LoggedPrepare,
    LoggedTransaction,
    decode_entries,
    encode_prepare,
    encode_transaction,
)

_INSERTED = {
    0: 1,
    1: None,
    2: -(1 << 63),
    3: (1 << 63) - 1,
    4: 1 << 63,
    5: (1 << 64) - 1,
    6: -1.5,
    7: float("nan"),
    8: True,
    9: False,
    10: b"\x00\xffraw",
    11: "héllo ☃ 日本",
    12: "",
    13: b"",
}

_OPS = (
    "0008006163636f756e747311003000000000000e000000010100000000000000010000"
    "0200010000000000000080030001ffffffffffffff7f04000600000000000000800500"
    "06ffffffffffffffff060002000000000000f8bf070002000000000000f87f08000301"
    "090003000a00040500000000ff7261770b00051100000068c3a96c6c6f20e2988320e6"
    "97a5e69cac0c0005000000000d0004000000000105006974656d730000000000000000"
    "0300000002000000000000024001000301020001f9ffffffffffffff0208006163636f"
    "756e7473ffffffffffffffff0000"
)

GOLDEN_TXN = "54584e3c2a0000000000000003000000" + _OPS + "3e54584e"
GOLDEN_PRP = "5052503c0a006e6f6465312ec3a92e3903000000" + _OPS + "3e505250"


def _committed_txn() -> TransactionContext:
    txn = TransactionContext(start_ts=5, txn_id=(1 << 63) | 5)
    txn.redo_buffer.append(
        RedoRecord(
            "accounts", TupleSlot(3, 17), RedoRecord.INSERT, ProjectedRow(_INSERTED)
        )
    )
    txn.redo_buffer.append(
        RedoRecord(
            "items",
            TupleSlot(0, 0),
            RedoRecord.UPDATE,
            ProjectedRow({2: np.int64(-7), 0: np.float64(2.25), 1: np.bool_(True)}),
        )
    )
    txn.redo_buffer.append(
        RedoRecord(
            "accounts",
            TupleSlot((1 << 44) - 1, (1 << 20) - 1),
            RedoRecord.DELETE,
            None,
        )
    )
    txn.commit_ts = 42
    return txn


def _assert_operations(operations):
    insert, update, delete = operations
    assert (insert.op, insert.table_name, insert.slot) == (
        "insert",
        "accounts",
        TupleSlot(3, 17),
    )
    nan = insert.values.pop(7)
    assert math.isnan(nan)
    expected = dict(_INSERTED)
    del expected[7]
    assert insert.values == expected
    assert type(insert.values[8]) is bool
    assert (update.op, update.table_name, update.slot) == (
        "update",
        "items",
        TupleSlot(0, 0),
    )
    assert update.values == {0: 2.25, 1: True, 2: -7}
    assert [type(update.values[c]) for c in (0, 1, 2)] == [float, bool, int]
    assert (delete.op, delete.table_name, delete.values) == ("delete", "accounts", {})
    assert delete.slot == TupleSlot((1 << 44) - 1, (1 << 20) - 1)


def test_transaction_bytes_are_golden():
    raw = encode_transaction(_committed_txn())
    assert raw.hex() == GOLDEN_TXN
    (entry,) = decode_entries(raw)
    assert isinstance(entry, LoggedTransaction)
    assert entry.commit_ts == 42
    _assert_operations(entry.operations)


def test_prepare_bytes_are_golden():
    raw = encode_prepare(_committed_txn(), "node1.é.9")
    assert raw.hex() == GOLDEN_PRP
    (entry,) = decode_entries(raw)
    assert isinstance(entry, LoggedPrepare)
    assert entry.gid == "node1.é.9"
    _assert_operations(entry.operations)


def test_both_entries_decode_back_to_back():
    txn = _committed_txn()
    raw = encode_transaction(txn) + encode_prepare(txn, "g")
    assert [type(e) for e in decode_entries(raw)] == [LoggedTransaction, LoggedPrepare]


@pytest.mark.parametrize("value", [object(), [1], bytearray(b"x"), 1j])
def test_unsupported_value_type_raises(value):
    txn = TransactionContext(start_ts=1, txn_id=(1 << 63) | 1)
    txn.redo_buffer.append(
        RedoRecord("t", TupleSlot(0, 0), RedoRecord.INSERT, ProjectedRow({0: value}))
    )
    txn.commit_ts = 2
    with pytest.raises(RecoveryError, match="cannot log value"):
        encode_transaction(txn)
    with pytest.raises(RecoveryError, match="cannot log value"):
        encode_prepare(txn, "g")
