"""Structural validation of Arrow arrays and batches.

The export layer hands out buffers that alias live storage; this validator
is the self-check that what leaves the engine is *well-formed Arrow*:
buffer sizes match lengths, offsets are monotone and in-bounds, dictionary
codes resolve, validity bitmaps are long enough.  Tests run it over every
exported batch; embedders can run it as a debug assertion.
"""

from __future__ import annotations

import numpy as np

from repro.arrowfmt.array import Array, DictionaryArray, FixedSizeArray, VarBinaryArray
from repro.arrowfmt.table import RecordBatch
from repro.errors import ArrowFormatError


def validate_array(array: Array) -> None:
    """Raise :class:`ArrowFormatError` on any structural violation."""
    if array.length < 0:
        raise ArrowFormatError("negative array length")
    if array.validity is not None and array.validity.length < array.length:
        raise ArrowFormatError(
            f"validity bitmap ({array.validity.length} bits) shorter than "
            f"array ({array.length})"
        )
    if isinstance(array, FixedSizeArray):
        needed = array.length * array.dtype.byte_width
        if array.values.size < needed:
            raise ArrowFormatError(
                f"values buffer ({array.values.size} B) shorter than "
                f"{array.length} x {array.dtype.byte_width} B"
            )
        return
    if isinstance(array, VarBinaryArray):
        offsets = array.offsets_numpy()
        if len(offsets) != array.length + 1:
            raise ArrowFormatError("offsets buffer must hold length + 1 entries")
        if array.length:
            if offsets[0] != 0:
                raise ArrowFormatError("first offset must be 0")
            if np.any(np.diff(offsets) < 0):
                raise ArrowFormatError("offsets must be non-decreasing")
            if offsets[-1] > array.values.size:
                raise ArrowFormatError("final offset exceeds values buffer")
        return
    if isinstance(array, DictionaryArray):
        validate_array(array.dictionary)
        codes = array.codes.to_numpy()
        if array.length:
            valid = (
                array.validity.to_numpy()[: array.length]
                if array.validity is not None
                else np.ones(array.length, dtype=bool)
            )
            live_codes = codes[: array.length][valid]
            if live_codes.size and (
                live_codes.min() < 0 or live_codes.max() >= array.dictionary.length
            ):
                raise ArrowFormatError("dictionary code out of range")
        return
    raise ArrowFormatError(f"unknown array type {type(array).__name__}")


def validate_batch(batch: RecordBatch) -> None:
    """Validate every column of a batch plus batch-level invariants."""
    if len(batch.schema) != len(batch.columns):
        raise ArrowFormatError("schema/column count mismatch")
    for field, column in zip(batch.schema, batch.columns):
        if len(column) != batch.num_rows:
            raise ArrowFormatError(
                f"column {field.name!r} length {len(column)} != batch "
                f"rows {batch.num_rows}"
            )
        validate_array(column)
        if not field.nullable and column.null_count:
            raise ArrowFormatError(f"nulls in non-nullable column {field.name!r}")
