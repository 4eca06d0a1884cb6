"""Tests for fixed-size, varbinary, and dictionary arrays."""

import numpy as np
import pytest

from repro.arrowfmt.array import (
    DictionaryArray,
    FixedSizeArray,
    VarBinaryArray,
    total_buffer_bytes,
)
from repro.arrowfmt.buffer import Bitmap, Buffer
from repro.arrowfmt.builder import FixedSizeBuilder, VarBinaryBuilder
from repro.arrowfmt.datatypes import BINARY, INT32, INT64, UTF8, DictionaryType
from repro.errors import ArrowFormatError


def dictionary_array(words, codes):
    """Codes (``None`` for null) into a dictionary of ``words``, the shape a
    dictionary-frozen block exposes."""
    return DictionaryArray(
        DictionaryType(INT32, UTF8),
        FixedSizeBuilder(INT32).extend(codes).finish(),
        VarBinaryBuilder(UTF8).extend(words).finish(),
    )


class TestFixedSizeArray:
    def test_from_numpy_and_getitem(self):
        array = FixedSizeArray.from_numpy(np.array([5, 6, 7]), INT64)
        assert array[1] == 6
        assert array.to_pylist() == [5, 6, 7]
        assert array.null_count == 0

    def test_nulls(self):
        validity = Bitmap.from_numpy(np.array([True, False, True]))
        array = FixedSizeArray.from_numpy(np.array([1, 2, 3]), INT64, validity)
        assert array.to_pylist() == [1, None, 3]
        assert array.null_count == 1

    def test_to_numpy_zero_copy(self):
        data = np.array([1, 2, 3], dtype=np.int64)
        array = FixedSizeArray.from_numpy(data, INT64)
        data[0] = 42
        assert array[0] == 42

    def test_buffer_too_small(self):
        with pytest.raises(ArrowFormatError):
            FixedSizeArray(INT64, 10, Buffer.allocate(8))

    def test_index_out_of_range(self):
        array = FixedSizeArray.from_numpy(np.array([1]), INT64)
        with pytest.raises(ArrowFormatError):
            array[1]

    def test_buffers_validity_first(self):
        validity = Bitmap.from_numpy(np.array([True]))
        array = FixedSizeArray.from_numpy(np.array([1]), INT64, validity)
        buffers = array.buffers()
        assert buffers[0] is validity.buffer
        assert buffers[1] is array.values


class TestVarBinaryArray:
    def test_figure_3_layout(self):
        # The exact example of Figure 3: ["JOE", null, "MARK"].
        array = VarBinaryBuilder(UTF8).extend(["JOE", None, "MARK"]).finish()
        offsets = list(array.offsets_numpy())
        assert offsets == [0, 3, 3, 7]
        assert array.values.to_bytes() == b"JOEMARK"
        assert array.to_pylist() == ["JOE", None, "MARK"]

    def test_binary_returns_bytes(self):
        array = VarBinaryBuilder(BINARY).extend([b"\x00\xff"]).finish()
        assert array[0] == b"\x00\xff"

    def test_empty_strings(self):
        array = VarBinaryBuilder(UTF8).extend(["", "a", ""]).finish()
        assert array.to_pylist() == ["", "a", ""]

    def test_offsets_must_be_monotonic(self):
        offsets = Buffer.from_numpy(np.array([0, 5, 3], dtype=np.int32))
        with pytest.raises(ArrowFormatError):
            VarBinaryArray(UTF8, 2, offsets, Buffer.allocate(8))

    def test_final_offset_bounded_by_values(self):
        offsets = Buffer.from_numpy(np.array([0, 4, 100], dtype=np.int32))
        with pytest.raises(ArrowFormatError):
            VarBinaryArray(UTF8, 2, offsets, Buffer.allocate(8))

    def test_value_bytes_none_for_null(self):
        array = VarBinaryBuilder(UTF8).extend([None]).finish()
        assert array.value_bytes(0) is None



class TestDictionaryArray:
    def test_codes_reference_sorted_dictionary(self):
        array = dictionary_array(["alpha", "beta"], [1, 0, 1])
        assert array.to_pylist() == ["beta", "alpha", "beta"]
        assert [array[i] for i in range(3)] == ["beta", "alpha", "beta"]

    def test_nulls(self):
        array = dictionary_array(["a"], [0, None])
        assert array.to_pylist() == ["a", None]
        assert array[1] is None
        assert array.null_count == 1

    def test_dictionary_size(self):
        array = dictionary_array(["a", "b", "c"], [0, 1, 0, 2])
        assert array.dictionary_size == 3

    def test_out_of_range_code_rejected(self):
        array = dictionary_array(["a"], [0])
        array.codes.to_numpy()[0] = 7
        with pytest.raises(ArrowFormatError):
            array[0]


class TestBufferAccounting:
    def test_total_buffer_bytes_counts_all(self):
        array = VarBinaryBuilder(UTF8).extend(["abcd", "ef"]).finish()
        # offsets: 3 int32 = 12 bytes; values: 6 bytes; no validity.
        assert total_buffer_bytes(array) == 12 + 6

    def test_fixed_size_bytes(self):
        array = FixedSizeBuilder(INT32).extend([1, 2, 3]).finish()
        assert total_buffer_bytes(array) == 12


class TestEquality:
    def test_array_equality_by_content(self):
        a = FixedSizeBuilder(INT64).extend([1, None]).finish()
        b = FixedSizeBuilder(INT64).extend([1, None]).finish()
        c = FixedSizeBuilder(INT64).extend([1, 2]).finish()
        assert a == b
        assert a != c
