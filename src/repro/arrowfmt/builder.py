"""Incremental builders producing canonical Arrow arrays.

Builders accumulate Python or numpy values and ``finish()`` into immutable
arrays with properly aligned buffers.  The transformation pipeline's gather
phase uses these to produce the contiguous varlen buffers Arrow requires.
"""

from __future__ import annotations

from typing import Any, Iterable

import numpy as np

from repro.arrowfmt.array import FixedSizeArray, VarBinaryArray
from repro.arrowfmt.buffer import Bitmap, Buffer
from repro.arrowfmt.datatypes import UTF8, FixedWidthType, VarBinaryType


class FixedSizeBuilder:
    """Builds a :class:`FixedSizeArray` one value at a time."""

    def __init__(self, dtype: FixedWidthType) -> None:
        self.dtype = dtype
        self._values: list[Any] = []
        self._valid: list[bool] = []

    def append(self, value: Any) -> "FixedSizeBuilder":
        """Append a value, or ``None`` for null."""
        if value is None:
            self._values.append(0)
            self._valid.append(False)
        else:
            self._values.append(value)
            self._valid.append(True)
        return self

    def extend(self, values: Iterable[Any]) -> "FixedSizeBuilder":
        """Append many values."""
        for value in values:
            self.append(value)
        return self

    def __len__(self) -> int:
        return len(self._values)

    def finish(self) -> FixedSizeArray:
        """Produce the immutable array and reset the builder."""
        data = np.array(self._values, dtype=self.dtype.numpy_dtype)
        validity = None
        if not all(self._valid):
            validity = Bitmap.from_numpy(np.array(self._valid, dtype=bool))
        array = FixedSizeArray(self.dtype, len(data), Buffer.from_numpy(data), validity)
        self._values, self._valid = [], []
        return array


class VarBinaryBuilder:
    """Builds a :class:`VarBinaryArray` with a single contiguous values buffer."""

    def __init__(self, dtype: VarBinaryType = UTF8) -> None:
        self.dtype = dtype
        self._chunks: list[bytes] = []
        self._lengths: list[int] = []
        self._valid: list[bool] = []

    def append(self, value: str | bytes | None) -> "VarBinaryBuilder":
        """Append a string/bytes value, or ``None`` for null."""
        if value is None:
            self._lengths.append(0)
            self._valid.append(False)
            return self
        raw = value.encode("utf-8") if isinstance(value, str) else bytes(value)
        self._chunks.append(raw)
        self._lengths.append(len(raw))
        self._valid.append(True)
        return self

    def extend(self, values: Iterable[str | bytes | None]) -> "VarBinaryBuilder":
        """Append many values."""
        for value in values:
            self.append(value)
        return self

    def __len__(self) -> int:
        return len(self._lengths)

    def finish(self) -> VarBinaryArray:
        """Produce the immutable array and reset the builder."""
        offsets = np.zeros(len(self._lengths) + 1, dtype=np.int32)
        np.cumsum(self._lengths, out=offsets[1:])
        values = Buffer.from_bytes(b"".join(self._chunks))
        validity = None
        if not all(self._valid):
            validity = Bitmap.from_numpy(np.array(self._valid, dtype=bool))
        array = VarBinaryArray(
            self.dtype, len(self._lengths), Buffer.from_numpy(offsets), values, validity
        )
        self._chunks, self._lengths, self._valid = [], [], []
        return array
