"""Property tests: log encoding and checkpointing round-trip any content."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ColumnSpec, Database, FLOAT64, INT64, UTF8
from repro.arrowfmt.datatypes import UINT64
from repro.wal.records import decode_stream

value_strategies = {
    "i": st.one_of(st.none(), st.integers(-(2**63), 2**63 - 1)),
    "u": st.one_of(st.none(), st.integers(0, 2**64 - 1)),
    "f": st.one_of(st.none(), st.floats(allow_nan=False, allow_infinity=False, width=64)),
    "s": st.one_of(st.none(), st.text(max_size=40)),
}

row_strategy = st.fixed_dictionaries(
    {
        0: value_strategies["i"],
        1: value_strategies["s"],
        2: value_strategies["f"],
        3: value_strategies["u"],
    }
)


def make_db():
    db = Database()
    db.create_table(
        "t",
        [
            ColumnSpec("i", INT64),
            ColumnSpec("s", UTF8),
            ColumnSpec("f", FLOAT64),
            ColumnSpec("u", UINT64),
        ],
        block_size=1 << 14,
    )
    return db


@settings(max_examples=25, deadline=None)
@given(st.lists(row_strategy, min_size=1, max_size=20))
def test_log_roundtrips_any_rows(rows):
    db = make_db()
    table = db.catalog.table("t")
    with db.transaction() as txn:
        for row in rows:
            table.insert(txn, row)
    db.quiesce()
    [decoded] = decode_stream(db.log_contents())
    assert [op.values for op in decoded.operations] == rows


@settings(max_examples=20, deadline=None)
@given(st.lists(row_strategy, min_size=1, max_size=15), st.data())
def test_checkpoint_roundtrips_any_state(rows, data):
    db = make_db()
    table = db.catalog.table("t")
    slots = []
    with db.transaction() as txn:
        for row in rows:
            slots.append(table.insert(txn, row))
    # Random deletions before the checkpoint.
    victims = data.draw(
        st.lists(st.sampled_from(range(len(slots))), unique=True, max_size=len(slots))
    )
    if victims:
        with db.transaction() as txn:
            for index in victims:
                table.delete(txn, slots[index])
    checkpoint = db.checkpoint()

    fresh = make_db()
    fresh.recover_with_checkpoint(checkpoint, b"")
    reader = fresh.begin()
    from collections import Counter

    recovered = Counter(
        tuple(sorted(row.to_dict().items()))
        for _, row in fresh.catalog.table("t").scan(reader)
    )
    expected = Counter(
        tuple(sorted(row.items()))
        for index, row in enumerate(rows)
        if index not in set(victims)
    )
    assert recovered == expected


@settings(max_examples=15, deadline=None)
@given(
    st.lists(row_strategy, min_size=1, max_size=10),
    st.lists(row_strategy, min_size=0, max_size=10),
)
def test_checkpoint_plus_suffix_equals_full_log(before, after):
    db = make_db()
    table = db.catalog.table("t")
    with db.transaction() as txn:
        for row in before:
            table.insert(txn, row)
    checkpoint = db.checkpoint()
    if after:
        with db.transaction() as txn:
            for row in after:
                table.insert(txn, row)
    db.quiesce()
    suffix = db.log_contents()

    fresh = make_db()
    fresh.recover_with_checkpoint(checkpoint, suffix)
    reader = fresh.begin()
    count = sum(1 for _ in fresh.catalog.table("t").scan(reader, [0]))
    assert count == len(before) + len(after)
