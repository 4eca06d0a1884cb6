"""Tests for the relaxed VarlenEntry format (Figure 6)."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import StorageError
from repro.storage.constants import VARLEN_ENTRY_SIZE, VARLEN_INLINE_LIMIT
from repro.storage.varlen import (
    ENTRY_DTYPE,
    INLINE_VALUE_OFFSET,
    VarlenHeap,
    decode_entry,
    encode_entries,
    encode_entry,
    free_entry,
    read_entry,
)


def fresh_view():
    return np.zeros(VARLEN_ENTRY_SIZE, dtype=np.uint8)


def gathered_view(size, prefix, offset):
    """An entry referencing ``offset`` of a gathered buffer, as the gather
    writes it: the entry's ``pointer`` field holds ``-(offset + 1)``."""
    view = fresh_view()
    entry = view.view(ENTRY_DTYPE)
    entry["size"], entry["prefix"], entry["pointer"] = size, prefix, -(offset + 1)
    return view


class TestInlineValues:
    def test_figure_6_short_value_inlined(self):
        # "Data" "base4all" (12 bytes) fits entirely within the entry.
        view, heap = fresh_view(), VarlenHeap()
        encode_entry(view, 0, b"Database4all", heap)
        entry = read_entry(view)
        assert entry.is_inlined
        assert len(heap) == 0
        assert decode_entry(view, 0, heap, None) == b"Database4all"

    def test_empty_value(self):
        view, heap = fresh_view(), VarlenHeap()
        encode_entry(view, 0, b"", heap)
        assert decode_entry(view, 0, heap, None) == b""

    def test_boundary_twelve_bytes_inlined(self):
        view, heap = fresh_view(), VarlenHeap()
        encode_entry(view, 0, b"x" * VARLEN_INLINE_LIMIT, heap)
        assert read_entry(view).is_inlined
        assert len(heap) == 0

    def test_thirteen_bytes_out_of_line(self):
        view, heap = fresh_view(), VarlenHeap()
        encode_entry(view, 0, b"x" * (VARLEN_INLINE_LIMIT + 1), heap)
        assert not read_entry(view).is_inlined
        assert len(heap) == 1

    def test_prefix_of_short_value(self):
        view, heap = fresh_view(), VarlenHeap()
        encode_entry(view, 0, b"Tran", heap)
        entry = read_entry(view)
        assert entry.prefix == b"Tran"
        assert entry.size == 4


class TestOutOfLineValues:
    def test_figure_6_long_value(self):
        view, heap = fresh_view(), VarlenHeap()
        value = b"Transactions on Arrow"
        encode_entry(view, 0, value, heap)
        entry = read_entry(view)
        assert entry.size == 21
        assert entry.prefix == b"Tran"
        assert entry.owns_buffer
        assert decode_entry(view, 0, heap, None) == value

    def test_update_is_constant_size(self):
        # The core of Section 4.1: an update only rewrites the 16-byte entry.
        view, heap = fresh_view(), VarlenHeap()
        encode_entry(view, 0, b"a much longer initial value", heap)
        encode_entry(view, 0, b"the replacement value, also long", heap)
        assert decode_entry(view, 0, heap, None) == b"the replacement value, also long"

    def test_heap_accounting(self):
        heap = VarlenHeap()
        view = fresh_view()
        encode_entry(view, 0, b"x" * 100, heap)
        assert heap.bytes_used == 100
        heap.free(read_entry(view).pointer)
        assert heap.bytes_used == 0

    def test_heap_double_free_detected(self):
        heap = VarlenHeap()
        heap_id = heap.put(b"x" * 20)
        heap.free(heap_id)
        with pytest.raises(StorageError):
            heap.free(heap_id)

    def test_heap_dangling_read_detected(self):
        with pytest.raises(StorageError):
            VarlenHeap().get(0)


class TestHeapGetMany:
    def test_empty(self):
        assert VarlenHeap().get_many([]) == ()

    def test_single_id(self):
        heap = VarlenHeap()
        heap_id = heap.put(b"x" * 20)
        assert heap.get_many([heap_id]) == (b"x" * 20,)

    def test_many_ids_in_request_order(self):
        heap = VarlenHeap()
        ids = [heap.put(bytes([65 + i]) * (13 + i)) for i in range(5)]
        order = [ids[3], ids[0], ids[4], ids[0]]
        assert heap.get_many(order) == tuple(heap.get(i) for i in order)

    def test_dangling_id_detected(self):
        heap = VarlenHeap()
        kept = heap.put(b"k" * 20)
        freed = heap.put(b"f" * 20)
        heap.free(freed)
        with pytest.raises(StorageError, match=f"dangling varlen heap id {freed}"):
            heap.get_many([kept, freed])
        with pytest.raises(StorageError):
            heap.get_many([freed])


def test_encode_entries_matches_encode_entry():
    values = [b"", b"abc", b"x" * VARLEN_INLINE_LIMIT, b"y" * 13, b"ab\x00", b"z" * 40]
    heap, expected_heap = VarlenHeap(), VarlenHeap()
    expected = np.zeros(len(values) * VARLEN_ENTRY_SIZE, dtype=np.uint8)
    for i, value in enumerate(values):
        encode_entry(expected, i * VARLEN_ENTRY_SIZE, value, expected_heap)
    entries = encode_entries(values, heap)
    assert entries.view(np.uint8).tobytes() == expected.tobytes()
    region = entries.view(np.uint8)
    mem = memoryview(region)
    assert [
        decode_entry(mem, i * VARLEN_ENTRY_SIZE, heap, None) for i in range(len(values))
    ] == values
    assert heap.bytes_used == expected_heap.bytes_used == 53
    assert len(encode_entries([], heap)) == 0


def test_entry_dtype_matches_the_struct_layout():
    heap = VarlenHeap()
    region = np.zeros(2 * VARLEN_ENTRY_SIZE, dtype=np.uint8)
    encode_entry(region[:VARLEN_ENTRY_SIZE], 0, b"inline", heap)
    encode_entry(region[VARLEN_ENTRY_SIZE:], 0, b"an out-of-line value", heap)
    entries = region.view(ENTRY_DTYPE)
    assert entries["size"].tolist() == [6, 20]
    assert entries["prefix"].tolist() == [b"inli", b"an o"]
    assert entries["pointer"][1] == read_entry(region[VARLEN_ENTRY_SIZE:]).pointer
    start = INLINE_VALUE_OFFSET
    assert region[start : start + 6].tobytes() == b"inline"


class TestGatheredEntries:
    def test_gathered_entry_reads_from_buffer(self):
        view = gathered_view(22, b"Hell", offset=4)
        gathered = np.frombuffer(b"aaaaHello, gathered world!zzz", dtype=np.uint8)
        entry = read_entry(view)
        assert not entry.owns_buffer
        assert decode_entry(view, 0, VarlenHeap(), gathered) == b"Hello, gathered world!"

    def test_gathered_entry_missing_buffer(self):
        view = gathered_view(20, b"abcd", offset=0)
        with pytest.raises(StorageError):
            decode_entry(view, 0, VarlenHeap(), None)

    def test_gathered_buffer_too_short(self):
        view = gathered_view(50, b"abcd", offset=0)
        short = np.frombuffer(b"tooshort", dtype=np.uint8)
        with pytest.raises(StorageError):
            decode_entry(view, 0, VarlenHeap(), short)


class TestEntryValidation:
    def test_bad_view_size(self):
        with pytest.raises(StorageError):
            read_entry(np.zeros(8, dtype=np.uint8))

    def test_corrupt_negative_size(self):
        view = fresh_view()
        view[0:4] = np.frombuffer(np.int32(-5).tobytes(), dtype=np.uint8)
        with pytest.raises(StorageError):
            read_entry(view)
        with pytest.raises(StorageError, match="negative size"):
            decode_entry(view, 0, VarlenHeap(), None)
        with pytest.raises(StorageError, match="negative size"):
            free_entry(view, 0, VarlenHeap())

    def test_dangling_heap_id(self):
        view, heap = fresh_view(), VarlenHeap()
        encode_entry(view, 0, b"x" * 20, heap)
        heap.free(read_entry(view).pointer)
        with pytest.raises(StorageError, match="dangling varlen heap id"):
            decode_entry(view, 0, heap, None)


class TestFreeEntry:
    def test_frees_only_owned_bytes(self):
        region, heap = np.zeros(3 * VARLEN_ENTRY_SIZE, dtype=np.uint8), VarlenHeap()
        encode_entry(region, 0, b"inline", heap)
        encode_entry(region, VARLEN_ENTRY_SIZE, b"an out-of-line value", heap)
        region[2 * VARLEN_ENTRY_SIZE :] = gathered_view(20, b"abcd", offset=0)
        for pos in range(0, 3 * VARLEN_ENTRY_SIZE, VARLEN_ENTRY_SIZE):
            free_entry(region, pos, heap)
        assert len(heap) == 0 and heap.bytes_used == 0


@given(st.binary(max_size=200))
def test_write_read_roundtrip_property(value):
    view, heap = fresh_view(), VarlenHeap()
    encode_entry(view, 0, value, heap)
    assert decode_entry(view, 0, heap, None) == value
    entry = read_entry(view)
    assert entry.size == len(value)
    assert entry.is_inlined == (len(value) <= VARLEN_INLINE_LIMIT)
