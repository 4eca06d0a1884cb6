"""Property-based tests for the Arrow format layer."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arrowfmt.array import DictionaryArray
from repro.arrowfmt.buffer import Bitmap
from repro.arrowfmt.builder import FixedSizeBuilder, VarBinaryBuilder
from repro.arrowfmt.datatypes import DictionaryType, Field, INT32, INT64, Schema, UTF8
from repro.arrowfmt.ipc import read_table, write_table
from repro.arrowfmt.table import RecordBatch, Table

int64s = st.integers(min_value=-(2**63), max_value=2**63 - 1)
opt_int64s = st.one_of(st.none(), int64s)
opt_text = st.one_of(st.none(), st.text(max_size=20))


@given(st.lists(opt_int64s, max_size=200))
def test_fixed_builder_roundtrip(values):
    array = FixedSizeBuilder(INT64).extend(values).finish()
    assert array.to_pylist() == values
    assert array.null_count == sum(v is None for v in values)


@given(st.lists(opt_text, max_size=100))
def test_varbinary_builder_roundtrip(values):
    array = VarBinaryBuilder(UTF8).extend(values).finish()
    assert array.to_pylist() == values


@given(st.lists(opt_text, max_size=100))
def test_varbinary_offsets_invariants(values):
    array = VarBinaryBuilder(UTF8).extend(values).finish()
    offsets = array.offsets_numpy()
    assert offsets[0] == 0
    assert np.all(np.diff(offsets) >= 0)
    assert offsets[-1] == sum(len(v.encode()) for v in values if v is not None)


@given(st.lists(opt_text, max_size=100))
def test_dictionary_roundtrip(values):
    words = sorted({v for v in values if v is not None})
    codes = [None if v is None else words.index(v) for v in values]
    array = DictionaryArray(
        DictionaryType(INT32, UTF8),
        FixedSizeBuilder(INT32).extend(codes).finish(),
        VarBinaryBuilder(UTF8).extend(words).finish(),
    )
    assert array.to_pylist() == values
    assert [array[i] for i in range(len(values))] == values
    assert array.null_count == values.count(None)


@given(st.lists(st.booleans(), max_size=300))
def test_bitmap_roundtrip(bits):
    mask = np.array(bits, dtype=bool)
    bitmap = Bitmap.from_numpy(mask)
    assert np.array_equal(bitmap.to_numpy(), mask)
    assert bitmap.count_set() == int(mask.sum())


@settings(max_examples=25, deadline=None)
@given(
    st.lists(
        st.tuples(st.lists(opt_int64s, min_size=1, max_size=30), st.just(None)),
        min_size=1,
        max_size=4,
    )
)
def test_ipc_roundtrip_any_batches(batch_specs):
    schema = Schema([Field("v", INT64)])
    batches = [
        RecordBatch(schema, [FixedSizeBuilder(INT64).extend(values).finish()])
        for values, _ in batch_specs
    ]
    table = Table(schema, batches)
    back = read_table(write_table(table))
    assert back.to_pydict() == table.to_pydict()
    assert [b.num_rows for b in back.batches] == [b.num_rows for b in table.batches]
