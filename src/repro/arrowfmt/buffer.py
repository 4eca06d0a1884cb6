"""Aligned byte buffers and validity bitmaps.

Arrow requires all buffers to be 8-byte aligned and padded to a multiple of
8 bytes so that vectorized readers can process them without peeling loops.
:class:`Buffer` enforces both properties; :class:`Bitmap` implements Arrow's
LSB-first validity bitmaps on top of a :class:`Buffer`.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ArrowFormatError

ALIGNMENT = 8


def _padded(nbytes: int) -> int:
    """Round ``nbytes`` up to the Arrow alignment boundary."""
    return (nbytes + ALIGNMENT - 1) // ALIGNMENT * ALIGNMENT


class Buffer:
    """A contiguous, 8-byte padded region of memory backed by numpy.

    ``size`` is the logical number of meaningful bytes; the backing store may
    be longer because of padding.  Slicing (:meth:`view`) is zero-copy.
    """

    __slots__ = ("_data", "size")

    def __init__(self, data: np.ndarray, size: int | None = None) -> None:
        if data.dtype != np.uint8 or data.ndim != 1:
            raise ArrowFormatError("Buffer requires a 1-D uint8 array")
        self._data = data
        self.size = len(data) if size is None else size
        if self.size > len(data):
            raise ArrowFormatError("logical size exceeds backing store")

    @classmethod
    def allocate(cls, nbytes: int) -> "Buffer":
        """Allocate a zeroed buffer of ``nbytes`` logical bytes (padded)."""
        if nbytes < 0:
            raise ArrowFormatError("cannot allocate a negative-size buffer")
        return cls(np.zeros(_padded(nbytes), dtype=np.uint8), nbytes)

    @classmethod
    def from_bytes(cls, raw: bytes | bytearray | memoryview) -> "Buffer":
        """Copy ``raw`` into a new aligned buffer."""
        buf = cls.allocate(len(raw))
        if len(raw):
            buf._data[: len(raw)] = np.frombuffer(raw, dtype=np.uint8)
        return buf

    @classmethod
    def from_numpy(cls, array: np.ndarray) -> "Buffer":
        """Wrap a numpy array's memory without copying.

        The array must be C-contiguous; its bytes become the buffer content.
        """
        if not array.flags["C_CONTIGUOUS"]:
            raise ArrowFormatError("from_numpy requires a C-contiguous array")
        flat = array.view(np.uint8).reshape(-1)
        return cls(flat, flat.nbytes)

    @property
    def data(self) -> np.ndarray:
        """The backing uint8 array (padding included)."""
        return self._data

    def to_bytes(self) -> bytes:
        """Copy the logical content out as immutable bytes."""
        return self._data[: self.size].tobytes()

    def view(self, offset: int = 0, length: int | None = None) -> np.ndarray:
        """Zero-copy uint8 view of ``[offset, offset + length)``."""
        if length is None:
            length = self.size - offset
        if offset < 0 or length < 0 or offset + length > self.size:
            raise ArrowFormatError(
                f"view [{offset}, {offset + length}) out of bounds for size {self.size}"
            )
        return self._data[offset : offset + length]

    def typed_view(self, numpy_dtype: np.dtype, offset: int = 0, count: int | None = None) -> np.ndarray:
        """Zero-copy view reinterpreted as ``numpy_dtype`` elements."""
        dtype = np.dtype(numpy_dtype)
        if offset % dtype.alignment:
            raise ArrowFormatError(
                f"offset {offset} not aligned for dtype {dtype}"
            )
        if count is None:
            count = (self.size - offset) // dtype.itemsize
        nbytes = count * dtype.itemsize
        return self.view(offset, nbytes).view(dtype)

    def __len__(self) -> int:
        return self.size

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Buffer):
            return NotImplemented
        return self.size == other.size and bool(
            np.array_equal(self._data[: self.size], other._data[: other.size])
        )

    def __repr__(self) -> str:
        return f"Buffer(size={self.size})"


class Bitmap:
    """An Arrow validity bitmap: bit ``i`` set means slot ``i`` is valid.

    Bits are LSB-first within each byte, per the Arrow specification.  The
    same structure doubles as the storage engine's *allocation bitmap*
    (which slots in a block contain live tuples).
    """

    __slots__ = ("buffer", "length")

    def __init__(self, buffer: Buffer, length: int) -> None:
        if buffer.size * 8 < length:
            raise ArrowFormatError("bitmap buffer too small for its length")
        self.buffer = buffer
        self.length = length

    def get(self, i: int) -> bool:
        """Return bit ``i``."""
        self._check(i)
        return bool(self.buffer.data[i >> 3] & (1 << (i & 7)))

    def count_set(self) -> int:
        """Population count over the whole bitmap."""
        return int(np.unpackbits(self._logical_bytes(), bitorder="little")[: self.length].sum())

    def to_numpy(self) -> np.ndarray:
        """Expand into a boolean array of length ``length``."""
        return np.unpackbits(self._logical_bytes(), bitorder="little")[: self.length].astype(bool)

    def set_indices(self) -> np.ndarray:
        """Indices of all set bits, ascending."""
        return np.nonzero(self.to_numpy())[0]

    @classmethod
    def from_numpy(cls, mask: np.ndarray) -> "Bitmap":
        """Pack a boolean array into a bitmap."""
        packed = np.packbits(mask.astype(np.uint8), bitorder="little")
        buf = Buffer.allocate(len(packed))
        buf.data[: len(packed)] = packed
        return cls(buf, len(mask))

    def _logical_bytes(self) -> np.ndarray:
        return self.buffer.data[: (self.length + 7) // 8]

    def _check(self, i: int) -> None:
        if not 0 <= i < self.length:
            raise ArrowFormatError(f"bit index {i} out of range [0, {self.length})")

    def __len__(self) -> int:
        return self.length

    def __repr__(self) -> str:
        return f"Bitmap(length={self.length}, set={self.count_set()})"
