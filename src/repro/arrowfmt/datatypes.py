"""Logical types, fields, and schemas for the Arrow format layer.

The Arrow specification separates *logical types* (what a value means) from
the *physical layout* (which buffers hold it).  This module covers the types
the storage engine needs: fixed-width primitives, variable-length binary /
UTF-8 strings, and dictionary encoding.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from repro.errors import ArrowFormatError


class DataType:
    """Base class for all logical types.

    Types are immutable value objects: equality is structural and instances
    are safe to share between schemas.
    """

    name: str = "type"

    #: Number of buffers backing an array of this type (excluding validity).
    num_buffers: int = 1

    def __eq__(self, other: object) -> bool:
        return type(self) is type(other) and self.__dict__ == other.__dict__

    def __hash__(self) -> int:
        return hash((type(self).__name__, tuple(sorted(self.__dict__.items()))))

    def __repr__(self) -> str:
        return self.name

    def to_json(self) -> dict:
        """Serializable description used by the IPC schema header."""
        raise ArrowFormatError(f"type {self!r} has no IPC form")


class FixedWidthType(DataType):
    """A type whose values occupy a fixed number of bytes."""

    def __init__(self, name: str, byte_width: int, numpy_dtype: str) -> None:
        self.name = name
        self.byte_width = byte_width
        self.numpy_dtype = np.dtype(numpy_dtype)

    def to_json(self) -> dict:
        """Serializable description used by the IPC schema header."""
        return {"kind": "fixed", "name": self.name}


class BoolType(FixedWidthType):
    """Booleans stored one byte per value.

    The Arrow spec bit-packs booleans; we store one byte per value to keep
    in-place transactional updates atomic (the paper's engine relies on
    aligned stores being atomic, Section 4.3).  The IPC layer is free to
    re-pack; nothing in this reproduction depends on the packed layout.
    """

    def __init__(self) -> None:
        super().__init__("bool", 1, "uint8")

    def to_json(self) -> dict:
        return {"kind": "bool", "name": self.name}


class FixedBinaryType(FixedWidthType):
    """Opaque fixed-width byte strings.

    Used by the row-store simulation of Figure 11: a "row" is one wide
    fixed-length attribute holding all fields contiguously.
    """

    def __init__(self, byte_width: int) -> None:
        if byte_width < 1:
            raise ArrowFormatError("fixed binary width must be positive")
        super().__init__(f"fixed_binary[{byte_width}]", byte_width, f"V{byte_width}")

    def to_json(self) -> dict:
        return {"kind": "fixed_binary", "width": self.byte_width}


class VarBinaryType(DataType):
    """Variable-length binary data: 32-bit offsets into a values buffer."""

    num_buffers = 2

    def __init__(self, name: str = "binary", is_utf8: bool = False) -> None:
        self.name = name
        self.is_utf8 = is_utf8

    def to_json(self) -> dict:
        return {"kind": "varbinary", "name": self.name, "utf8": self.is_utf8}


class DictionaryType(DataType):
    """Dictionary encoding: integer codes referencing a value dictionary.

    The type of a dictionary-frozen block's varlen columns in memory; it
    has no IPC form, because exports decode those columns first."""

    def __init__(self, index_type: FixedWidthType, value_type: DataType) -> None:
        if not isinstance(index_type, FixedWidthType):
            raise ArrowFormatError("dictionary index type must be fixed-width")
        self.name = f"dictionary<{index_type.name}, {value_type.name}>"
        self.index_type = index_type
        self.value_type = value_type


INT8 = FixedWidthType("int8", 1, "int8")
INT16 = FixedWidthType("int16", 2, "int16")
INT32 = FixedWidthType("int32", 4, "int32")
INT64 = FixedWidthType("int64", 8, "int64")
UINT8 = FixedWidthType("uint8", 1, "uint8")
UINT16 = FixedWidthType("uint16", 2, "uint16")
UINT32 = FixedWidthType("uint32", 4, "uint32")
UINT64 = FixedWidthType("uint64", 8, "uint64")
FLOAT32 = FixedWidthType("float32", 4, "float32")
FLOAT64 = FixedWidthType("float64", 8, "float64")
BOOL = BoolType()
BINARY = VarBinaryType("binary", is_utf8=False)
UTF8 = VarBinaryType("utf8", is_utf8=True)

_TYPES_BY_NAME: dict[str, DataType] = {
    t.name: t
    for t in (
        INT8, INT16, INT32, INT64,
        UINT8, UINT16, UINT32, UINT64,
        FLOAT32, FLOAT64, BOOL, BINARY, UTF8,
    )
}


def type_from_json(spec: dict) -> DataType:
    """Inverse of ``DataType.to_json`` — used when parsing IPC headers."""
    kind = spec.get("kind")
    if kind in ("fixed", "bool", "varbinary"):
        try:
            return _TYPES_BY_NAME[spec["name"]]
        except KeyError:
            raise ArrowFormatError(f"unknown type name {spec['name']!r}") from None
    if kind == "fixed_binary":
        return FixedBinaryType(spec["width"])
    raise ArrowFormatError(f"unknown type kind {kind!r}")


@dataclass(frozen=True)
class Field:
    """A named, typed, possibly-nullable column in a schema."""

    name: str
    dtype: DataType
    nullable: bool = True

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "type": self.dtype.to_json(),
            "nullable": self.nullable,
        }

    @staticmethod
    def from_json(spec: dict) -> "Field":
        return Field(spec["name"], type_from_json(spec["type"]), spec["nullable"])


@dataclass(frozen=True)
class Schema:
    """An ordered collection of fields describing a table.

    Mirrors the example of Figure 2 in the paper, where a SQL table's schema
    is described through Arrow's type system.
    """

    fields: tuple[Field, ...]
    metadata: tuple[tuple[str, str], ...] = field(default_factory=tuple)

    def __init__(
        self,
        fields: Sequence[Field],
        metadata: dict[str, str] | None = None,
    ) -> None:
        names = [f.name for f in fields]
        if len(set(names)) != len(names):
            raise ArrowFormatError(f"duplicate field names in schema: {names}")
        object.__setattr__(self, "fields", tuple(fields))
        object.__setattr__(
            self, "metadata", tuple(sorted((metadata or {}).items()))
        )

    def __len__(self) -> int:
        return len(self.fields)

    def __iter__(self) -> Iterator[Field]:
        return iter(self.fields)

    @property
    def names(self) -> list[str]:
        """Field names in schema order."""
        return [f.name for f in self.fields]

    def field(self, name: str) -> Field:
        """Look up a field by name, raising :class:`ArrowFormatError` if absent."""
        for f in self.fields:
            if f.name == name:
                return f
        raise ArrowFormatError(f"no field named {name!r}")

    def index_of(self, name: str) -> int:
        """Return the position of the field called ``name``."""
        for i, f in enumerate(self.fields):
            if f.name == name:
                return i
        raise ArrowFormatError(f"no field named {name!r}")

    def to_json(self) -> dict:
        return {
            "fields": [f.to_json() for f in self.fields],
            "metadata": dict(self.metadata),
        }

    @staticmethod
    def from_json(spec: dict) -> "Schema":
        return Schema(
            [Field.from_json(f) for f in spec["fields"]],
            metadata=spec.get("metadata") or None,
        )
