"""Immutable Arrow arrays: fixed-size, variable-length binary, dictionary.

An array is a logical sequence of values over one or more physical buffers
plus an optional validity bitmap.  Arrays are read-only once constructed —
the transactional engine mutates the *relaxed* block format instead, and the
transformation pipeline emits these canonical arrays for cold data.
"""

from __future__ import annotations

from typing import Any, Iterator

import numpy as np

from repro.arrowfmt.buffer import Bitmap, Buffer
from repro.arrowfmt.datatypes import (
    DataType,
    DictionaryType,
    FixedWidthType,
    VarBinaryType,
)
from repro.errors import ArrowFormatError


class Array:
    """Base class for all arrays."""

    dtype: DataType
    length: int
    validity: Bitmap | None

    def is_valid(self, i: int) -> bool:
        """Whether slot ``i`` holds a (non-null) value."""
        self._check(i)
        return self.validity is None or self.validity.get(i)

    @property
    def null_count(self) -> int:
        """Number of null slots; part of Arrow's array metadata."""
        if self.validity is None:
            return 0
        return self.length - self.validity.count_set()

    def buffers(self) -> list[Buffer | None]:
        """Physical buffers in Arrow order (validity first)."""
        raise NotImplementedError

    def to_pylist(self) -> list:
        """Materialize into a plain Python list (``None`` for nulls)."""
        return [self[i] for i in range(self.length)]

    def __len__(self) -> int:
        return self.length

    def __iter__(self) -> Iterator:
        return (self[i] for i in range(self.length))

    def __getitem__(self, i: int) -> Any:
        raise NotImplementedError

    def _check(self, i: int) -> None:
        if not 0 <= i < self.length:
            raise ArrowFormatError(f"index {i} out of range [0, {self.length})")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Array):
            return NotImplemented
        return (
            self.dtype == other.dtype
            and self.length == other.length
            and self.to_pylist() == other.to_pylist()
        )


class FixedSizeArray(Array):
    """An array of fixed-width values over a single values buffer."""

    def __init__(
        self,
        dtype: FixedWidthType,
        length: int,
        values: Buffer,
        validity: Bitmap | None = None,
    ) -> None:
        if not isinstance(dtype, FixedWidthType):
            raise ArrowFormatError(f"{dtype!r} is not fixed-width")
        if values.size < length * dtype.byte_width:
            raise ArrowFormatError("values buffer too small for array length")
        if validity is not None and validity.length < length:
            raise ArrowFormatError("validity bitmap shorter than array")
        self.dtype = dtype
        self.length = length
        self.values = values
        self.validity = validity

    @classmethod
    def from_numpy(
        cls, array: np.ndarray, dtype: FixedWidthType, validity: Bitmap | None = None
    ) -> "FixedSizeArray":
        """Zero-copy wrap of a C-contiguous numpy array."""
        if array.dtype != dtype.numpy_dtype:
            array = array.astype(dtype.numpy_dtype)
        return cls(dtype, len(array), Buffer.from_numpy(array), validity)

    def to_numpy(self) -> np.ndarray:
        """Zero-copy typed view of the values buffer (nulls not masked)."""
        return self.values.typed_view(self.dtype.numpy_dtype, 0, self.length)

    def buffers(self) -> list[Buffer | None]:
        validity_buf = self.validity.buffer if self.validity is not None else None
        return [validity_buf, self.values]

    def to_pylist(self) -> list:
        """Bulk materialization: one vectorized pass, not per-value access."""
        if self.dtype.numpy_dtype.kind == "V":
            return [self[i] for i in range(self.length)]
        values = self.to_numpy().tolist()
        if self.dtype.name == "bool":
            values = [bool(v) for v in values]
        if self.validity is not None:
            mask = self.validity.to_numpy()[: self.length]
            values = [v if ok else None for v, ok in zip(values, mask)]
        return values

    def __getitem__(self, i: int) -> Any:
        if not self.is_valid(i):
            return None
        value = self.to_numpy()[i]
        if self.dtype.name == "bool":
            return bool(value)
        return value.item()


class VarBinaryArray(Array):
    """Variable-length values: int32 offsets into a contiguous byte buffer.

    This is the layout of Figure 3 in the paper: ``offsets[i+1] - offsets[i]``
    is the length of value ``i``.  Updating a value in place requires
    rewriting the entire values buffer — the write amplification that
    motivates the relaxed in-block format.
    """

    def __init__(
        self,
        dtype: VarBinaryType,
        length: int,
        offsets: Buffer,
        values: Buffer,
        validity: Bitmap | None = None,
    ) -> None:
        if not isinstance(dtype, VarBinaryType):
            raise ArrowFormatError(f"{dtype!r} is not a varbinary type")
        if offsets.size < (length + 1) * 4:
            raise ArrowFormatError("offsets buffer must hold length + 1 int32s")
        self.dtype = dtype
        self.length = length
        self.offsets = offsets
        self.values = values
        self.validity = validity
        offs = self.offsets_numpy()
        if length and (np.any(np.diff(offs) < 0) or offs[0] != 0):
            raise ArrowFormatError("offsets must be non-decreasing and start at 0")
        if length and offs[-1] > values.size:
            raise ArrowFormatError("final offset exceeds values buffer")

    def offsets_numpy(self) -> np.ndarray:
        """Zero-copy int32 view of the offsets buffer."""
        return self.offsets.typed_view(np.dtype("int32"), 0, self.length + 1)

    def value_bytes(self, i: int) -> bytes | None:
        """The raw bytes of value ``i`` (``None`` if null)."""
        if not self.is_valid(i):
            return None
        offs = self.offsets_numpy()
        return self.values.view(int(offs[i]), int(offs[i + 1] - offs[i])).tobytes()

    def buffers(self) -> list[Buffer | None]:
        validity_buf = self.validity.buffer if self.validity is not None else None
        return [validity_buf, self.offsets, self.values]

    def to_pylist(self) -> list:
        """Bulk materialization: one bytes copy + sliced decodes."""
        offsets = self.offsets_numpy().tolist()
        raw = self.values.view(0, offsets[-1] if self.length else 0).tobytes()
        decode = self.dtype.is_utf8
        values: list[Any] = []
        for i in range(self.length):
            chunk = raw[offsets[i] : offsets[i + 1]]
            values.append(chunk.decode("utf-8") if decode else chunk)
        if self.validity is not None:
            mask = self.validity.to_numpy()[: self.length]
            values = [v if ok else None for v, ok in zip(values, mask)]
        return values

    def __getitem__(self, i: int) -> Any:
        raw = self.value_bytes(i)
        if raw is None:
            return None
        return raw.decode("utf-8") if self.dtype.is_utf8 else raw


class DictionaryArray(Array):
    """Dictionary-encoded values: integer codes plus a value dictionary.

    This is the alternative cold format of Section 4.4, matching the
    dictionary compression found in Parquet and ORC.  The dictionary is a
    sorted :class:`VarBinaryArray`; codes index into it.
    """

    def __init__(
        self,
        dtype: DictionaryType,
        codes: FixedSizeArray,
        dictionary: Array,
        validity: Bitmap | None = None,
    ) -> None:
        if not isinstance(dtype, DictionaryType):
            raise ArrowFormatError(f"{dtype!r} is not a dictionary type")
        if codes.dtype != dtype.index_type:
            raise ArrowFormatError("code array type does not match dictionary index type")
        self.dtype = dtype
        self.length = codes.length
        self.codes = codes
        self.dictionary = dictionary
        self.validity = validity if validity is not None else codes.validity

    @property
    def dictionary_size(self) -> int:
        """Number of distinct values in the dictionary."""
        return self.dictionary.length

    def buffers(self) -> list[Buffer | None]:
        validity_buf = self.validity.buffer if self.validity is not None else None
        return [validity_buf, self.codes.values, *[
            b for b in self.dictionary.buffers() if b is not None
        ]]

    def to_pylist(self) -> list:
        """Bulk materialization: decode the dictionary once, map codes.

        Codes under null slots are never inspected (builders zero them, but
        foreign data may not).
        """
        words = self.dictionary.to_pylist()
        codes = self.codes.to_numpy().tolist()
        size = self.dictionary.length
        mask = (
            self.validity.to_numpy()[: self.length]
            if self.validity is not None
            else None
        )
        values: list[Any] = []
        for i, code in enumerate(codes[: self.length]):
            if mask is not None and not mask[i]:
                values.append(None)
                continue
            if not 0 <= code < size:
                raise ArrowFormatError(f"dictionary code {code} out of range")
            values.append(words[code])
        return values

    def __getitem__(self, i: int) -> Any:
        if not self.is_valid(i):
            return None
        code = int(self.codes.to_numpy()[i])
        if not 0 <= code < self.dictionary.length:
            raise ArrowFormatError(f"dictionary code {code} out of range")
        return self.dictionary[code]


def total_buffer_bytes(array: Array) -> int:
    """Sum of the physical buffer sizes backing ``array``.

    Used by the export layer to account for bytes shipped over the wire in
    zero-copy protocols.
    """
    return sum(b.size for b in array.buffers() if b is not None)
