"""Tests for the logical type system, fields, and schemas."""

import pytest

from repro.arrowfmt.datatypes import (
    BINARY,
    BOOL,
    FLOAT64,
    INT32,
    INT64,
    UTF8,
    DictionaryType,
    Field,
    Schema,
    type_from_json,
)
from repro.errors import ArrowFormatError


class TestTypes:
    def test_fixed_width_properties(self):
        assert INT64.byte_width == 8
        assert INT32.byte_width == 4
        assert FLOAT64.numpy_dtype.kind == "f"

    def test_type_equality_structural(self):
        assert DictionaryType(INT32, UTF8) == DictionaryType(INT32, UTF8)
        assert DictionaryType(INT32, UTF8) != DictionaryType(INT32, BINARY)
        assert INT64 != INT32

    def test_types_hashable(self):
        assert len({INT64, INT64, INT32}) == 2

    def test_utf8_flag(self):
        assert UTF8.is_utf8
        assert not BINARY.is_utf8

    def test_dictionary_requires_fixed_index(self):
        with pytest.raises(ArrowFormatError):
            DictionaryType(UTF8, UTF8)  # type: ignore[arg-type]

    def test_json_roundtrip_primitives(self):
        for dtype in (INT64, FLOAT64, BOOL, UTF8, BINARY):
            assert type_from_json(dtype.to_json()) == dtype

    def test_json_has_no_dictionary_kind(self):
        # Dictionary columns never reach an IPC header: exports decode them.
        spec = {"kind": "dictionary", "index": INT32.to_json(), "value": UTF8.to_json()}
        with pytest.raises(ArrowFormatError):
            type_from_json(spec)

    def test_json_unknown_kind(self):
        with pytest.raises(ArrowFormatError):
            type_from_json({"kind": "tensor"})


class TestSchema:
    def test_field_lookup(self):
        schema = Schema([Field("id", INT64, False), Field("name", UTF8)])
        assert schema.field("name").dtype == UTF8
        assert schema.index_of("id") == 0
        assert schema.names == ["id", "name"]

    def test_missing_field(self):
        schema = Schema([Field("id", INT64)])
        with pytest.raises(ArrowFormatError):
            schema.field("nope")
        with pytest.raises(ArrowFormatError):
            schema.index_of("nope")

    def test_duplicate_names_rejected(self):
        with pytest.raises(ArrowFormatError):
            Schema([Field("x", INT64), Field("x", UTF8)])

    def test_schema_json_roundtrip(self):
        schema = Schema(
            [Field("id", INT64, False), Field("name", UTF8)],
            metadata={"table": "item"},
        )
        assert Schema.from_json(schema.to_json()) == schema

    def test_schema_iterable_and_sized(self):
        schema = Schema([Field("a", INT64), Field("b", UTF8)])
        assert len(schema) == 2
        assert [f.name for f in schema] == ["a", "b"]

    def test_tpcc_item_schema_like_figure_2(self):
        # Figure 2 of the paper describes TPC-C ITEM through Arrow's DDL.
        schema = Schema(
            [
                Field("i_id", INT32, False),
                Field("i_im_id", INT32),
                Field("i_name", UTF8),
                Field("i_price", FLOAT64),
                Field("i_data", UTF8),
            ]
        )
        assert len(schema) == 5
        assert schema.field("i_price").dtype == FLOAT64
