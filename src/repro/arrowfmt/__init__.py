"""From-scratch implementation of the Arrow columnar memory format.

This subpackage implements the parts of the Apache Arrow specification that
the paper's storage engine relies on:

- 8-byte aligned buffers and validity bitmaps (:mod:`repro.arrowfmt.buffer`),
- the logical type system (:mod:`repro.arrowfmt.datatypes`),
- fixed-size, variable-length binary, and dictionary-encoded arrays
  (:mod:`repro.arrowfmt.array`): the buffers of a frozen block,
- fixed-size and varbinary builders (:mod:`repro.arrowfmt.builder`) for
  materialized hot blocks and checkpoints,
- record batches and tables (:mod:`repro.arrowfmt.table`),
- structural validation (:mod:`repro.arrowfmt.validate`) behind
  ``verify_integrity``, and
- a binary IPC stream encoding (:mod:`repro.arrowfmt.ipc`) used by the
  export layer and checkpoints to ship data with no per-value
  serialization.

That is all the engine writes, ships and lands; slicing, reshaping and a
random-access file format are left to real Arrow libraries.

It deliberately does **not** depend on ``pyarrow``: implementing the format
is part of reproducing the paper, whose storage blocks *are* Arrow buffers.
"""

from repro.arrowfmt.buffer import Bitmap, Buffer
from repro.arrowfmt.datatypes import (
    BOOL,
    FLOAT32,
    FLOAT64,
    INT8,
    INT16,
    INT32,
    INT64,
    UINT8,
    UINT16,
    UINT32,
    UINT64,
    UTF8,
    DataType,
    DictionaryType,
    Field,
    FixedWidthType,
    Schema,
    VarBinaryType,
)
from repro.arrowfmt.array import Array, DictionaryArray, FixedSizeArray, VarBinaryArray
from repro.arrowfmt.builder import FixedSizeBuilder, VarBinaryBuilder
from repro.arrowfmt.table import RecordBatch, Table
from repro.arrowfmt.ipc import read_table, write_table

__all__ = [
    "Array",
    "Bitmap",
    "BOOL",
    "Buffer",
    "DataType",
    "DictionaryArray",
    "DictionaryType",
    "Field",
    "FixedSizeArray",
    "FixedSizeBuilder",
    "FixedWidthType",
    "FLOAT32",
    "FLOAT64",
    "INT8",
    "INT16",
    "INT32",
    "INT64",
    "RecordBatch",
    "Schema",
    "Table",
    "UINT8",
    "UINT16",
    "UINT32",
    "UINT64",
    "UTF8",
    "VarBinaryArray",
    "VarBinaryBuilder",
    "VarBinaryType",
    "read_table",
    "write_table",
]
