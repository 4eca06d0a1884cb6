"""Relaxed variable-length value storage (Section 4.1, Figure 6).

Each variable-length attribute occupies a fixed 16-byte ``VarlenEntry``
inside the block:

====== ===== ========================================================
bytes  field meaning
====== ===== ========================================================
0–3    size  length of the value in bytes (sign bit = ownership flag)
4–7    prefix first 4 bytes of the value, for fast filtering
8–15   pointer out-of-line reference, or bytes 4–15 of an inlined value
====== ===== ========================================================

Values of at most 12 bytes are stored entirely within the entry (prefix +
pointer fields).  Longer values live out of line; in C++ the pointer field
holds a raw address, here it holds an id into the owning block's *varlen
heap* (a Python-level map id → bytes), or — after the gather phase — a
negative offset into the block's canonical Arrow values buffer, which
models the paper's "buffer ownership" bit: entries that reference gathered
storage do not own their bytes.
"""

from __future__ import annotations

import struct
from operator import itemgetter
from typing import Sequence

import numpy as np

from repro.errors import StorageError
from repro.storage.constants import VARLEN_ENTRY_SIZE, VARLEN_INLINE_LIMIT

_ENTRY = struct.Struct("<i4sq")  # size, prefix, heap id or -(gathered offset + 1)
_INLINE = struct.Struct("<i12s")  # size, the value zero-padded to 12 bytes

#: The same 16 bytes as a numpy record, for reading a whole entry region at
#: once (``region.view(ENTRY_DTYPE)``).  An inlined value's bytes start at
#: byte 4 of its entry (prefix, then the pointer field).
ENTRY_DTYPE = np.dtype([("size", "<i4"), ("prefix", "S4"), ("pointer", "<i8")])
INLINE_VALUE_OFFSET = 4


class VarlenEntry:
    """Decoded view of one 16-byte varlen entry.

    ``pointer`` semantics:

    - value inlined (``size <= 12``): pointer bytes hold the value suffix;
    - ``pointer >= 0``: id into the block's varlen heap (entry owns bytes);
    - ``pointer < 0``: ``-(offset + 1)`` into the block's gathered Arrow
      values buffer for this column (entry does not own bytes).
    """

    __slots__ = ("size", "prefix", "pointer", "inline_payload")

    def __init__(
        self,
        size: int,
        prefix: bytes,
        pointer: int = 0,
        inline_payload: bytes | None = None,
    ) -> None:
        self.size = size
        self.prefix = prefix
        self.pointer = pointer
        self.inline_payload = inline_payload

    @property
    def is_inlined(self) -> bool:
        """Whether the full value lives inside the 16-byte entry."""
        return self.size <= VARLEN_INLINE_LIMIT

    @property
    def owns_buffer(self) -> bool:
        """Whether the entry owns its out-of-line bytes (heap reference)."""
        return not self.is_inlined and self.pointer >= 0


def encode_entry(mem: memoryview | np.ndarray, pos: int, value: bytes, heap: "VarlenHeap") -> None:
    """Encode ``value`` as the 16-byte entry at ``mem[pos:pos + 16]``.

    Short values are inlined (zero-padded); longer ones are stored in
    ``heap`` and the entry keeps the heap id.  If the region previously
    owned a heap entry, the caller is responsible for freeing it (the
    engine defers frees to the garbage collector, Section 4.4).
    """
    if len(value) <= VARLEN_INLINE_LIMIT:
        _INLINE.pack_into(mem, pos, len(value), value)
    else:
        _ENTRY.pack_into(mem, pos, len(value), value[:4], heap.put(value))


def encode_entries(values: Sequence[bytes], heap: "VarlenHeap") -> np.ndarray:
    """:func:`encode_entry` for many values at once: one ``ENTRY_DTYPE``
    array, with every out-of-line value stored by one ``heap.put_many``.

    An entry's bytes 4–15 are the value's first 12 bytes, zero-padded
    (``S12`` truncates and pads in one conversion); out-of-line entries
    then overwrite bytes 8–15 with their heap id, keeping the prefix.
    """
    n = len(values)
    entries = np.zeros(n, dtype=ENTRY_DTYPE)
    if not n:
        return entries
    sizes = np.fromiter(map(len, values), np.int64, n)
    if sizes.max() > np.iinfo(np.int32).max:
        raise StorageError("varlen value too large for its entry")
    entries["size"] = sizes
    raw = entries.view(np.uint8).reshape(n, VARLEN_ENTRY_SIZE)
    raw[:, INLINE_VALUE_OFFSET:] = (
        np.array(values, dtype=f"S{VARLEN_INLINE_LIMIT}").view(np.uint8).reshape(n, -1)
    )
    out_of_line = np.flatnonzero(sizes > VARLEN_INLINE_LIMIT)
    if len(out_of_line):
        entries["pointer"][out_of_line] = heap.put_many(
            [values[i] for i in out_of_line.tolist()]
        )
    return entries


def owned_entries(entries: np.ndarray, wanted: np.ndarray) -> np.ndarray:
    """Mask of the ``wanted`` entries (an ``ENTRY_DTYPE`` array) whose
    value lives in the heap: out of line, with a heap id, not a gathered
    ``-(offset + 1)`` reference."""
    return wanted & (entries["size"] > VARLEN_INLINE_LIMIT) & (entries["pointer"] >= 0)


def decode_entries(
    region: np.ndarray,
    wanted: np.ndarray,
    gathered: np.ndarray | None,
    heap_values: Sequence[bytes],
    rows: np.ndarray | None = None,
    overrides: dict[int, bytes | None] | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Decode the entries of slots ``[0, n)`` into Arrow buffers, block at
    a time: the int32 offsets and uint8 values of slots ``rows`` (default:
    all) and their validity mask.

    Only ``wanted`` slots are read; the rest decode as NULL.
    ``heap_values`` are the bytes of the :func:`owned_entries` among them,
    in slot order; ``overrides`` maps a slot to the bytes read instead of
    its entry (``None``: NULL).  Every value is one run of bytes in one
    source — its entry, the gathered buffer, the heap bytes or the
    overrides — so offsets are one ``cumsum`` and values one numpy gather.
    :func:`decode_entry`'s checks hold: no negative size, no gathered
    reference past (or without) the buffer, heap bytes matching sizes.
    """
    entries = region.view(ENTRY_DTYPE)
    sizes = entries["size"].astype(np.int64)
    pointers = entries["pointer"]
    if (sizes[wanted] < 0).any():
        raise StorageError("corrupt varlen entry: negative size")
    out_of_line = wanted & (sizes > VARLEN_INLINE_LIMIT)
    in_heap = out_of_line & (pointers >= 0)
    in_gathered = out_of_line & (pointers < 0)

    starts = np.arange(len(sizes), dtype=np.int64) * VARLEN_ENTRY_SIZE
    starts += INLINE_VALUE_OFFSET
    sources = [region]
    base = region.size
    if in_gathered.any():
        if gathered is None:
            raise StorageError("entry references a gathered buffer that is absent")
        positions = -pointers[in_gathered] - 1
        if (positions + sizes[in_gathered] > gathered.size).any():
            raise StorageError("gathered buffer shorter than entry size")
        starts[in_gathered] = base + positions
        sources.append(gathered)
        base += gathered.size

    heap_sizes = sizes[in_heap]
    heap_lengths = np.fromiter(map(len, heap_values), np.int64, len(heap_values))
    if not np.array_equal(heap_lengths, heap_sizes):
        raise StorageError("varlen heap bytes do not match their entry sizes")
    starts[in_heap] = base + np.cumsum(heap_sizes) - heap_sizes
    base += int(heap_sizes.sum())

    pieces = list(heap_values)
    if overrides:
        wanted = wanted.copy()
        for slot, raw in overrides.items():
            wanted[slot] = raw is not None
            if raw is None:
                continue
            sizes[slot] = len(raw)
            starts[slot] = base
            base += len(raw)
            pieces.append(raw)
    if pieces:
        sources.append(np.frombuffer(b"".join(pieces), dtype=np.uint8))

    if rows is None:
        rows = np.arange(len(sizes))
    keep = wanted[rows]
    lengths = np.where(keep, sizes[rows], 0)
    offsets = np.zeros(len(rows) + 1, dtype=np.int32)
    np.cumsum(lengths, out=offsets[1:])
    # Output byte j of a row that starts at output position p and source
    # position s comes from source byte s + (j - p).
    shift = starts[rows][keep] - offsets[:-1][keep]
    source = np.arange(int(offsets[-1]), dtype=np.int64) + np.repeat(shift, lengths[keep])
    return offsets, np.concatenate(sources)[source], keep


def _unpack(mem: memoryview | np.ndarray, pos: int) -> tuple[int, bytes, int]:
    """``(size, prefix, pointer)`` of the entry at ``mem[pos:pos + 16]``."""
    size, prefix, pointer = _ENTRY.unpack_from(mem, pos)
    if size < 0:
        raise StorageError(f"corrupt varlen entry: negative size {size}")
    return size, prefix, pointer


def decode_entry(
    mem: memoryview | np.ndarray, pos: int, heap: "VarlenHeap", gathered: np.ndarray | None
) -> bytes:
    """The full value behind the 16-byte entry at ``mem[pos:pos + 16]``.

    ``gathered`` is the block's canonical Arrow values buffer for this
    column (needed only for non-owning entries).
    """
    size, inlined = _INLINE.unpack_from(mem, pos)
    if 0 <= size <= VARLEN_INLINE_LIMIT:
        return inlined[:size]
    size, _, pointer = _unpack(mem, pos)
    if pointer >= 0:
        return heap.get(pointer)
    offset = -pointer - 1
    if gathered is None:
        raise StorageError("entry references a gathered buffer that is absent")
    raw = bytes(gathered[offset : offset + size])
    if len(raw) != size:
        raise StorageError("gathered buffer shorter than entry size")
    return raw


def free_entry(mem: memoryview | np.ndarray, pos: int, heap: "VarlenHeap") -> None:
    """Free the heap bytes the entry at ``mem[pos:pos + 16]`` owns, if any."""
    size, _, pointer = _unpack(mem, pos)
    if size > VARLEN_INLINE_LIMIT and pointer >= 0:
        heap.free(pointer)


def read_entry(view: np.ndarray) -> VarlenEntry:
    """Decode the 16-byte region ``view`` into a :class:`VarlenEntry`."""
    _check_view(view)
    size, prefix, pointer = _unpack(view, 0)
    if size <= VARLEN_INLINE_LIMIT:
        payload = view[INLINE_VALUE_OFFSET : INLINE_VALUE_OFFSET + size].tobytes()
        return VarlenEntry(size, prefix[: min(size, 4)], 0, payload)
    return VarlenEntry(size, prefix, pointer)


def _check_view(view: np.ndarray) -> None:
    if view.dtype != np.uint8 or view.size != VARLEN_ENTRY_SIZE:
        raise StorageError("varlen entry view must be 16 uint8 bytes")


class VarlenHeap:
    """Out-of-line storage for one varlen column of one block.

    Models the malloc'd buffers the C++ engine hangs off VarlenEntries.  Ids
    are monotonically increasing; ``free`` is explicit so the garbage
    collector can account for deferred deallocation, and double-frees are
    detected rather than ignored.
    """

    __slots__ = ("_values", "_next_id", "bytes_used")

    def __init__(self) -> None:
        self._values: dict[int, bytes] = {}
        self._next_id = 0
        self.bytes_used = 0

    def put(self, value: bytes) -> int:
        """Store ``value`` and return its heap id."""
        heap_id = self._next_id
        self._next_id += 1
        self._values[heap_id] = bytes(value)
        self.bytes_used += len(value)
        return heap_id

    def put_many(self, values: Sequence[bytes]) -> np.ndarray:
        """Store every one of ``values``; returns their heap ids, in order."""
        first = self._next_id
        self._next_id += len(values)
        self._values.update(zip(range(first, self._next_id), values))
        self.bytes_used += sum(map(len, values))
        return np.arange(first, self._next_id, dtype=np.int64)

    def get(self, heap_id: int) -> bytes:
        """Fetch the bytes behind ``heap_id``."""
        try:
            return self._values[heap_id]
        except KeyError:
            raise StorageError(f"dangling varlen heap id {heap_id}") from None

    def get_many(self, heap_ids: Sequence[int]) -> tuple[bytes, ...]:
        """The bytes behind each of ``heap_ids``, in order, in one lookup."""
        if not heap_ids:
            return ()
        try:
            found = itemgetter(*heap_ids)(self._values)
        except KeyError as exc:
            raise StorageError(f"dangling varlen heap id {exc.args[0]}") from None
        return found if len(heap_ids) > 1 else (found,)

    def free(self, heap_id: int) -> None:
        """Release one entry; freeing an unknown id is an error."""
        try:
            self.bytes_used -= len(self._values.pop(heap_id))
        except KeyError:
            raise StorageError(f"double free of varlen heap id {heap_id}") from None

    def __len__(self) -> int:
        return len(self._values)

    def live_ids(self) -> set[int]:
        """Ids currently allocated (used by leak-checking tests)."""
        return set(self._values)
