"""Redo records (Section 3.4).

Each transaction appends physical after-images of its changes to its redo
buffer, a plain list, in the order they occur.  At commit the transaction
joins the log manager's flush queue; record order on disk is implied by
commit timestamps rather than log sequence numbers.  A read-only
transaction (an empty buffer) writes no bytes but still passes through the
queue, so its durability signal fires only after every earlier commit is
on disk (see :meth:`repro.wal.manager.LogManager.flush`).

Every after-image value must be one the log can encode.  That is decided
where a record is built (:func:`check_loggable`), before the write and long
before the commit timestamp is drawn.
"""

from __future__ import annotations

from typing import Any, Iterable

import numpy as np

from repro.errors import RecoveryError
from repro.storage.projection import ProjectedRow
from repro.storage.tuple_slot import TupleSlot

#: The exact types the log encodes without folding first.
PRIMITIVES = frozenset((int, float, str, bytes, bool, type(None)))

#: The integers the log's signed and unsigned 64-bit value tags can hold.
_LOGGABLE_INTS = range(-(1 << 63), 1 << 64)


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


def fold(value: Any) -> Any:
    """The primitive a non-primitive value is logged as.

    numpy scalars fold to their Python value; subclasses of the primitive
    types (``IntEnum``, a ``(str, Enum)`` member) to the primitive they
    hold, read past any overridden ``__str__``.
    """
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, int):
        return int.__int__(value)
    if isinstance(value, float):
        return float.__float__(value)
    if isinstance(value, str):
        return str.__str__(value)
    if isinstance(value, bytes):
        return bytes(memoryview(value))
    raise RecoveryError(f"cannot log value of type {type(value).__name__}")


def check_loggable(values: Iterable[Any]) -> None:
    """Raise unless the log can encode every value: :class:`OverflowError`
    for an integer outside 64 bits, :class:`RecoveryError` for a type the
    log has no tag for.

    Storage takes some values the log cannot: ``10**30`` in a FLOAT64
    column, a ``bytearray`` in a BINARY one.  Left to the encoder, such a
    value would fail only after the transaction was stamped and visible,
    and its queued redo stream would fail every later flush.
    """
    for value in values:
        kind = type(value)
        if kind not in PRIMITIVES:
            value = fold(value)
            kind = type(value)
        if kind is int and value not in _LOGGABLE_INTS:
            raise OverflowError(f"cannot log integer {value}: outside [-2**63, 2**64)")
