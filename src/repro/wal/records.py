"""On-disk log record encoding.

The serialized form of one transaction is::

    'TXN<'  commit_ts:u64  op_count:u32
    per op: op_tag:u8  table_len:u16 table:utf8  slot:u64  value_count:u16
            per value: column_id:u16  type_tag:u8  payload
    '>TXN'

Values are self-describing (type tags) so recovery needs no catalog access
to parse the stream.  Read-only transactions produce no bytes at all: they
pass through the flush queue only for the durability-callback protocol.

Two-phase commit (see :mod:`repro.cluster`) adds two more record kinds:

    'PRP<'  gid_len:u16 gid:utf8  op_count:u32  [ops as above]  '>PRP'
    'DEC<'  gid_len:u16 gid:utf8  decision:u8  commit_ts:u64    '>DEC'

A ``PRP`` record is a participant's durable yes-vote: the full redo stream
of a prepared-but-undecided transaction, written (and fsynced) before the
participant acks prepare.  A ``DEC`` record resolves it — decision 1 is
commit (with the participant's commit timestamp), 0 is abort.  The same
``DEC`` framing doubles as the coordinator log's decision records.
Recovery follows presumed-abort: a prepare without a commit decision is
*in doubt* and resolves to abort unless the coordinator log says commit.
"""

from __future__ import annotations

import functools
import struct
from dataclasses import dataclass, field
from typing import Any, Iterable

from repro.errors import RecoveryError
from repro.storage.tuple_slot import TupleSlot
from repro.txn.context import TransactionContext
from repro.txn.redo import PRIMITIVES, RedoRecord, fold

_TXN_BEGIN = b"TXN<"
_TXN_END = b">TXN"

_PRP_BEGIN = b"PRP<"
_PRP_END = b">PRP"

_DEC_BEGIN = b"DEC<"
_DEC_END = b">DEC"

DECISION_ABORT = 0
DECISION_COMMIT = 1

_OP_TAGS = {RedoRecord.INSERT: 0, RedoRecord.UPDATE: 1, RedoRecord.DELETE: 2}
_OP_NAMES = {v: k for k, v in _OP_TAGS.items()}

#: ``_T_INT`` is a signed 64-bit payload; ``_T_UINT`` an unsigned one,
#: for the ``UINT64`` values in ``[2**63, 2**64)`` the signed one cannot hold.
_T_NULL, _T_INT, _T_FLOAT, _T_BOOL, _T_BYTES, _T_STR, _T_UINT = range(7)


_TXN_HEAD = struct.Struct("<QI")  # commit_ts, op_count
_OP_HEAD = struct.Struct("<BH")  # op_tag, table_len
_SLOT_COUNT = struct.Struct("<QH")  # slot, value_count
_VARLEN_HEAD = struct.Struct("<HBI")  # column_id, type_tag, length
#: A fixed-width value with its header: column_id, type_tag, value.
_FIXED_VALUES = {
    _T_INT: struct.Struct("<HBq"),
    _T_UINT: struct.Struct("<HBQ"),
    _T_FLOAT: struct.Struct("<HBd"),
    _T_BOOL: struct.Struct("<HB?"),
}
_INT_VALUE = _FIXED_VALUES[_T_INT]
_UINT_VALUE = _FIXED_VALUES[_T_UINT]
_FLOAT_VALUE = _FIXED_VALUES[_T_FLOAT]
_BOOL_VALUE = _FIXED_VALUES[_T_BOOL]
_NULL_VALUE = struct.Struct("<HB")  # column_id, type_tag
_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")
_DECISION = struct.Struct("<BQ")  # decision, commit_ts

@dataclass
class LoggedOperation:
    """One decoded operation from the log."""

    op: str
    table_name: str
    #: The operation's slot in the logging database, as :meth:`TupleSlot.pack`
    #: wrote it.
    packed_slot: int
    values: dict[int, Any] = field(default_factory=dict)

    @property
    def slot(self) -> TupleSlot:
        return TupleSlot.unpack(self.packed_slot)


@dataclass
class LoggedTransaction:
    """One decoded committed transaction."""

    commit_ts: int
    operations: list[LoggedOperation] = field(default_factory=list)


@dataclass
class LoggedPrepare:
    """A decoded PREPARE record: a durable yes-vote awaiting a decision."""

    gid: str
    operations: list[LoggedOperation] = field(default_factory=list)


@dataclass
class LoggedDecision:
    """A decoded DECISION record resolving a prepared transaction."""

    gid: str
    decision: int
    commit_ts: int

    @property
    def is_commit(self) -> bool:
        return self.decision == DECISION_COMMIT


class LogMarker:
    """A pre-encoded entry queued on the log alongside transactions.

    The log manager derives a committed transaction's bytes itself via
    :func:`encode_transaction`.  Two-phase commit needs to append records
    that are *not* commit records — a participant's ``PRP`` yes-vote, a
    ``DEC`` resolution — so those are wrapped in a marker the flush path
    treats uniformly: write ``payload``, then ``signal_durable()``.  When
    ``txn`` is given, its durability callbacks fire once the marker's
    bytes are fsynced (used to tie a commit decision's durability back to
    the distributed transaction that produced it).
    """

    __slots__ = ("payload", "is_read_only", "_txn", "_durable")

    def __init__(self, payload: bytes, txn: TransactionContext | None = None):
        self.payload = payload
        # An empty payload is skipped by the flush path, mirroring
        # read-only transactions.
        self.is_read_only = len(payload) == 0
        self._txn = txn
        self._durable = False

    @property
    def durable(self) -> bool:
        return self._durable

    def signal_durable(self) -> None:
        self._durable = True
        if self._txn is not None:
            self._txn.signal_durable()


@functools.lru_cache(maxsize=1024)
def _op_header(op: str, table_name: str) -> bytes:
    """``op_tag table_len table``: the same for every op of a kind on a table."""
    raw = table_name.encode("utf-8")
    return _OP_HEAD.pack(_OP_TAGS[op], len(raw)) + raw


def _append_operations(out: bytearray, records: Iterable[RedoRecord]) -> None:
    """Append each record's op header, slot and tagged values to ``out``.

    The mirror of :func:`_decode_operations`, through the same ``Struct``s.
    """
    for record in records:
        out += _op_header(record.op, record.table_name)
        after = record.after
        if after is None:
            out += _SLOT_COUNT.pack(record.slot.pack(), 0)
            continue
        out += _SLOT_COUNT.pack(record.slot.pack(), len(after))
        for column_id, value in after.items():
            kind = type(value)
            if kind not in PRIMITIVES:
                value = fold(value)
                kind = type(value)
            if kind is int:
                if value >= 1 << 63:
                    out += _UINT_VALUE.pack(column_id, _T_UINT, value)
                else:
                    out += _INT_VALUE.pack(column_id, _T_INT, value)
            elif kind is str:
                raw = value.encode("utf-8")
                out += _VARLEN_HEAD.pack(column_id, _T_STR, len(raw))
                out += raw
            elif kind is float:
                out += _FLOAT_VALUE.pack(column_id, _T_FLOAT, value)
            elif kind is bytes:
                out += _VARLEN_HEAD.pack(column_id, _T_BYTES, len(value))
                out += value
            elif kind is bool:
                out += _BOOL_VALUE.pack(column_id, _T_BOOL, value)
            else:
                out += _NULL_VALUE.pack(column_id, _T_NULL)


def encode_transaction(txn: TransactionContext) -> bytes:
    """Serialize a committed transaction's redo stream.

    Returns ``b''`` for read-only transactions — the log manager skips
    writing their commit records (Section 3.4).
    """
    if txn.commit_ts is None:
        raise RecoveryError("cannot encode an uncommitted transaction")
    records = txn.redo_buffer
    if len(records) == 0:
        return b""
    out = bytearray(_TXN_BEGIN)
    out += _TXN_HEAD.pack(txn.commit_ts, len(records))
    _append_operations(out, records)
    out += _TXN_END
    return bytes(out)


def encode_prepare(txn: TransactionContext, gid: str) -> bytes:
    """Serialize a prepared transaction's redo stream under its global id.

    Returns ``b''`` for read-only participants: a transaction with no
    writes needs no durable vote (aborting it is indistinguishable from
    committing it), and its commit decision is likewise never logged.
    """
    records = txn.redo_buffer
    if len(records) == 0:
        return b""
    raw_gid = gid.encode("utf-8")
    out = bytearray(_PRP_BEGIN)
    out += _U16.pack(len(raw_gid))
    out += raw_gid
    out += _U32.pack(len(records))
    _append_operations(out, records)
    out += _PRP_END
    return bytes(out)


def encode_decision(gid: str, decision: int, commit_ts: int = 0) -> bytes:
    """Serialize a decision record for ``gid``.

    ``commit_ts`` is meaningful only for commit decisions on participant
    logs (it is the timestamp recovery replays the prepared operations
    under); coordinator-log decisions leave it zero.
    """
    if decision not in (DECISION_ABORT, DECISION_COMMIT):
        raise RecoveryError(f"invalid decision {decision!r}")
    raw_gid = gid.encode("utf-8")
    return b"".join(
        (
            _DEC_BEGIN,
            _U16.pack(len(raw_gid)),
            raw_gid,
            _DECISION.pack(decision, commit_ts),
            _DEC_END,
        )
    )


class _Damage(RecoveryError):
    """A record that does not parse; ``position`` is how far the reader
    got (the end of the log when a field ran past it)."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(message)
        self.position = position


def _truncated(raw: bytes) -> _Damage:
    return _Damage("truncated log stream", len(raw))


def _utf8(raw: bytes, position: int) -> str:
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError:
        raise _Damage("invalid UTF-8 in log record", position) from None


def _decode_operations(
    raw: bytes, pos: int, count: int, names: dict[bytes, str]
) -> tuple[list[LoggedOperation], int]:
    """``count`` operations starting at ``pos``; returns them and the
    position after the last.  ``names`` caches decoded table names."""
    end = len(raw)
    operations = []
    for _ in range(count):
        if pos + 3 > end:
            raise _truncated(raw)
        tag, name_len = _OP_HEAD.unpack_from(raw, pos)
        pos += 3
        op = _OP_NAMES.get(tag)
        if op is None:
            raise _Damage(f"unknown operation tag {tag}", pos)
        stop = pos + name_len
        if stop + 10 > end:
            raise _truncated(raw)
        raw_name = raw[pos:stop]
        table_name = names.get(raw_name)
        if table_name is None:
            table_name = names[raw_name] = _utf8(raw_name, stop)
        packed_slot, value_count = _SLOT_COUNT.unpack_from(raw, stop)
        pos = stop + 10
        values: dict[int, Any] = {}
        for _ in range(value_count):
            if pos + 3 > end:
                raise _truncated(raw)
            tag = raw[pos + 2]
            fixed = _FIXED_VALUES.get(tag)
            if fixed is not None:
                stop = pos + fixed.size
                if stop > end:
                    raise _truncated(raw)
                column_id, _, value = fixed.unpack_from(raw, pos)
                values[column_id] = value
                pos = stop
            elif tag == _T_STR or tag == _T_BYTES:
                if pos + 7 > end:
                    raise _truncated(raw)
                column_id, _, length = _VARLEN_HEAD.unpack_from(raw, pos)
                stop = pos + 7 + length
                if stop > end:
                    raise _truncated(raw)
                value = raw[pos + 7 : stop]
                pos = stop
                values[column_id] = _utf8(value, pos) if tag == _T_STR else value
            elif tag == _T_NULL:
                values[_U16.unpack_from(raw, pos)[0]] = None
                pos += 3
            else:
                raise _Damage(f"unknown value tag {tag}", pos + 3)
        operations.append(LoggedOperation(op, table_name, packed_slot, values))
    return operations, pos


def _decode_gid(raw: bytes, pos: int) -> tuple[str, int]:
    if pos + 2 > len(raw):
        raise _truncated(raw)
    stop = pos + 2 + _U16.unpack_from(raw, pos)[0]
    if stop > len(raw):
        raise _truncated(raw)
    return _utf8(raw[pos + 2 : stop], stop), stop


def _end_marker(raw: bytes, pos: int, marker: bytes, what: str) -> int:
    if pos + 4 > len(raw):
        raise _truncated(raw)
    if raw[pos : pos + 4] != marker:
        raise _Damage(f"missing {what} end marker", pos + 4)
    return pos + 4


def decode_entries(
    raw: bytes, tolerate_torn_tail: bool = False
) -> list[LoggedTransaction | LoggedPrepare | LoggedDecision]:
    """Parse every physical record in ``raw``, in log order.

    One pass over one buffer: fixed-width fields are precompiled
    ``struct`` reads at an offset, each behind an explicit bounds check.
    Any damage — a field past the end, an unknown tag or marker, invalid
    UTF-8 — raises :class:`RecoveryError`.

    With ``tolerate_torn_tail=True``, a truncated *final* record — what a
    crash mid-flush leaves behind — is silently dropped: its bytes never
    fully reached the device, so whatever it recorded never happened.
    A record is torn when the failing read reached the end of the log;
    damage anywhere before the tail is still an error.
    """
    raw = bytes(raw)
    end = len(raw)
    names: dict[bytes, str] = {}
    entries: list[LoggedTransaction | LoggedPrepare | LoggedDecision] = []
    pos = 0
    while pos < end:
        try:
            entry: LoggedTransaction | LoggedPrepare | LoggedDecision
            if pos + 4 > end:
                raise _truncated(raw)
            marker = raw[pos : pos + 4]
            pos += 4
            if marker == _TXN_BEGIN:
                if pos + 12 > end:
                    raise _truncated(raw)
                commit_ts, op_count = _TXN_HEAD.unpack_from(raw, pos)
                operations, pos = _decode_operations(raw, pos + 12, op_count, names)
                pos = _end_marker(raw, pos, _TXN_END, "transaction")
                entry = LoggedTransaction(commit_ts, operations)
            elif marker == _PRP_BEGIN:
                gid, pos = _decode_gid(raw, pos)
                if pos + 4 > end:
                    raise _truncated(raw)
                op_count = _U32.unpack_from(raw, pos)[0]
                operations, pos = _decode_operations(raw, pos + 4, op_count, names)
                pos = _end_marker(raw, pos, _PRP_END, "prepare")
                entry = LoggedPrepare(gid, operations)
            elif marker == _DEC_BEGIN:
                gid, pos = _decode_gid(raw, pos)
                if pos + 9 > end:
                    raise _truncated(raw)
                decision, commit_ts = _DECISION.unpack_from(raw, pos)
                pos += 9
                if decision not in (DECISION_ABORT, DECISION_COMMIT):
                    raise _Damage(f"unknown decision value {decision}", pos)
                pos = _end_marker(raw, pos, _DEC_END, "decision")
                entry = LoggedDecision(gid, decision, commit_ts)
            else:
                raise _Damage(f"bad record marker {marker!r}", pos)
        except _Damage as damage:
            if tolerate_torn_tail and damage.position >= end:
                # The failure reached the end of the log: a torn tail.
                return entries
            raise
        entries.append(entry)
    return entries


def decode_with_indoubt(
    raw: bytes, tolerate_torn_tail: bool = False
) -> tuple[list[LoggedTransaction], list[LoggedPrepare]]:
    """Resolve a participant log into committed and in-doubt transactions.

    A prepare followed by a commit decision becomes a committed
    transaction, positioned at the decision (not the prepare) so replay
    order matches commit order.  A prepare followed by an abort decision
    vanishes.  A prepare with no decision at all is *in doubt*; the
    caller consults the coordinator log (presumed abort) to resolve it.

    An abort decision with no matching prepare is ignored — it is what a
    lazily-logged abort looks like when the prepare itself was resolved
    by an earlier recovery.  A *commit* decision with no matching prepare
    is corruption: commit decisions only exist after the prepare was
    forced durable.
    """
    pending: dict[str, LoggedPrepare] = {}
    committed: list[LoggedTransaction] = []
    for entry in decode_entries(raw, tolerate_torn_tail):
        if isinstance(entry, LoggedTransaction):
            committed.append(entry)
        elif isinstance(entry, LoggedPrepare):
            pending[entry.gid] = entry
        else:
            prepare = pending.pop(entry.gid, None)
            if entry.is_commit:
                if prepare is None:
                    raise RecoveryError(
                        f"commit decision for unknown gid {entry.gid!r}"
                    )
                committed.append(
                    LoggedTransaction(entry.commit_ts, prepare.operations)
                )
    return committed, list(pending.values())


def decode_stream(
    raw: bytes, tolerate_torn_tail: bool = False
) -> list[LoggedTransaction]:
    """Parse a log into its committed transactions, in commit order.

    Prepared-but-undecided transactions are dropped (presumed abort);
    use :func:`decode_with_indoubt` when the caller can resolve them
    against a coordinator log.
    """
    committed, _ = decode_with_indoubt(raw, tolerate_torn_tail)
    return committed
