"""Tests for aligned buffers and validity bitmaps."""

import numpy as np
import pytest

from repro.arrowfmt.buffer import ALIGNMENT, Bitmap, Buffer
from repro.errors import ArrowFormatError


class TestBuffer:
    def test_allocate_pads_to_alignment(self):
        buf = Buffer.allocate(13)
        assert buf.size == 13
        assert len(buf.data) % ALIGNMENT == 0
        assert len(buf.data) >= 13

    def test_allocate_zeroed(self):
        buf = Buffer.allocate(64)
        assert not buf.data.any()

    def test_allocate_zero_bytes(self):
        buf = Buffer.allocate(0)
        assert buf.size == 0
        assert buf.to_bytes() == b""

    def test_allocate_negative_raises(self):
        with pytest.raises(ArrowFormatError):
            Buffer.allocate(-1)

    def test_from_bytes_roundtrip(self):
        raw = b"hello world"
        assert Buffer.from_bytes(raw).to_bytes() == raw

    def test_from_numpy_zero_copy(self):
        array = np.arange(4, dtype=np.int64)
        buf = Buffer.from_numpy(array)
        array[0] = 99
        assert buf.typed_view(np.dtype("int64"))[0] == 99

    def test_from_numpy_rejects_non_contiguous(self):
        array = np.arange(10, dtype=np.int64)[::2]
        with pytest.raises(ArrowFormatError):
            Buffer.from_numpy(array)

    def test_view_bounds(self):
        buf = Buffer.allocate(16)
        assert len(buf.view(8, 8)) == 8
        with pytest.raises(ArrowFormatError):
            buf.view(10, 8)
        with pytest.raises(ArrowFormatError):
            buf.view(-1, 4)

    def test_view_is_zero_copy(self):
        buf = Buffer.allocate(8)
        buf.view(0, 8)[3] = 42
        assert buf.data[3] == 42

    def test_typed_view_alignment_check(self):
        buf = Buffer.allocate(16)
        with pytest.raises(ArrowFormatError):
            buf.typed_view(np.dtype("int64"), offset=4)

    def test_typed_view_values(self):
        array = np.array([1.5, -2.5], dtype=np.float64)
        buf = Buffer.from_numpy(array)
        assert list(buf.typed_view(np.dtype("float64"))) == [1.5, -2.5]

    def test_equality_is_content_based(self):
        assert Buffer.from_bytes(b"abc") == Buffer.from_bytes(b"abc")
        assert Buffer.from_bytes(b"abc") != Buffer.from_bytes(b"abd")

    def test_logical_size_cannot_exceed_backing(self):
        with pytest.raises(ArrowFormatError):
            Buffer(np.zeros(4, dtype=np.uint8), size=5)


class TestBitmap:
    def test_allocate_all_clear(self):
        bm = Bitmap.from_numpy(np.zeros(10, dtype=bool))
        assert bm.count_set() == 0
        assert not any(bm.get(i) for i in range(10))

    def test_allocate_all_set(self):
        bm = Bitmap.from_numpy(np.ones(10, dtype=bool))
        assert bm.count_set() == 10
        assert all(bm.get(i) for i in range(10))

    def test_all_set_clears_padding_bits(self):
        # 10 bits => 2 bytes; the 6 trailing bits must be 0 for exact popcounts.
        bm = Bitmap.from_numpy(np.ones(10, dtype=bool))
        assert bm.buffer.data[1] == 0b00000011

    def test_lsb_first_bit_order(self):
        mask = np.zeros(8, dtype=bool)
        mask[0] = True
        assert Bitmap.from_numpy(mask).buffer.data[0] == 0b00000001
        mask[7] = True
        assert Bitmap.from_numpy(mask).buffer.data[0] == 0b10000001

    def test_out_of_range(self):
        bm = Bitmap.from_numpy(np.zeros(8, dtype=bool))
        with pytest.raises(ArrowFormatError):
            bm.get(8)
        with pytest.raises(ArrowFormatError):
            bm.get(-1)

    def test_to_numpy_roundtrip(self):
        mask = np.array([True, False, True, True, False], dtype=bool)
        bm = Bitmap.from_numpy(mask)
        assert np.array_equal(bm.to_numpy(), mask)

    def test_set_and_clear_indices(self):
        mask = np.array([True, False, False, True], dtype=bool)
        bm = Bitmap.from_numpy(mask)
        assert list(bm.set_indices()) == [0, 3]
        assert list(np.flatnonzero(~bm.to_numpy())) == [1, 2]

    def test_length_zero(self):
        bm = Bitmap.from_numpy(np.zeros(0, dtype=bool))
        assert bm.count_set() == 0
        assert len(bm.to_numpy()) == 0

    def test_buffer_too_small_rejected(self):
        with pytest.raises(ArrowFormatError):
            Bitmap(Buffer.allocate(1), 9)
