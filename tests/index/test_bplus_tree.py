"""Tests for the B+-tree index structure."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import IndexError_
from repro.index.bplus_tree import BPlusTree


class TestBasics:
    def test_insert_search(self):
        tree = BPlusTree(order=4)
        tree.insert(5, "a")
        tree.insert(3, "b")
        assert tree.search(5) == ["a"]
        assert tree.search(3) == ["b"]
        assert tree.search(99) == []

    def test_duplicate_keys(self):
        tree = BPlusTree(order=4)
        tree.insert(1, "x")
        tree.insert(1, "y")
        assert sorted(tree.search(1)) == ["x", "y"]
        assert len(tree) == 2

    def test_delete(self):
        tree = BPlusTree(order=4)
        tree.insert(1, "x")
        tree.insert(1, "y")
        assert tree.delete(1, "x")
        assert tree.search(1) == ["y"]
        assert not tree.delete(1, "x")  # already gone
        assert not tree.delete(42, "z")  # never present

    def test_contains_and_len(self):
        tree = BPlusTree(order=4)
        assert 1 not in tree
        tree.insert(1, "v")
        assert 1 in tree
        assert len(tree) == 1

    def test_order_validation(self):
        with pytest.raises(IndexError_):
            BPlusTree(order=2)

    def test_splits_maintain_order(self):
        tree = BPlusTree(order=4)
        keys = list(range(200))
        random.Random(3).shuffle(keys)
        for k in keys:
            tree.insert(k, k * 10)
        assert tree.keys() == sorted(range(200))
        assert tree.depth() > 1
        for k in range(200):
            assert tree.search(k) == [k * 10]

    def test_tuple_keys(self):
        tree = BPlusTree()
        tree.insert((1, "b"), "x")
        tree.insert((1, "a"), "y")
        tree.insert((0, "z"), "w")
        assert tree.keys() == [(0, "z"), (1, "a"), (1, "b")]


class TestRangeScan:
    def build(self, n=100):
        tree = BPlusTree(order=8)
        for i in range(n):
            tree.insert(i, f"v{i}")
        return tree

    def test_full_scan(self):
        tree = self.build(50)
        pairs = list(tree.range_scan())
        assert [k for k, _ in pairs] == list(range(50))

    def test_bounded_scan(self):
        tree = self.build()
        pairs = list(tree.range_scan(10, 20))
        assert [k for k, _ in pairs] == list(range(10, 21))

    def test_exclusive_high(self):
        tree = self.build()
        pairs = list(tree.range_scan(10, 20, inclusive_high=False))
        assert [k for k, _ in pairs] == list(range(10, 20))

    def test_open_ended(self):
        tree = self.build(30)
        assert [k for k, _ in tree.range_scan(low=25)] == [25, 26, 27, 28, 29]
        assert [k for k, _ in tree.range_scan(high=4)] == [0, 1, 2, 3, 4]

    def test_scan_with_duplicates(self):
        tree = BPlusTree(order=4)
        for i in range(5):
            tree.insert(1, i)
        assert len(list(tree.range_scan(1, 1))) == 5

    def test_empty_range(self):
        tree = self.build(10)
        assert list(tree.range_scan(100, 200)) == []


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(st.integers(-100, 100), st.integers()), max_size=300))
def test_matches_reference_dict(pairs):
    tree = BPlusTree(order=5)
    reference: dict[int, list[int]] = {}
    for key, value in pairs:
        tree.insert(key, value)
        reference.setdefault(key, []).append(value)
    assert tree.keys() == sorted(reference)
    for key, values in reference.items():
        assert sorted(tree.search(key)) == sorted(values)
    scanned = [k for k, _ in tree.range_scan()]
    assert scanned == sorted(scanned)
    assert len(tree) == sum(len(v) for v in reference.values())


@settings(max_examples=20, deadline=None)
@given(
    st.lists(st.integers(0, 50), min_size=1, max_size=200),
    st.data(),
)
def test_delete_property(keys, data):
    tree = BPlusTree(order=4)
    for i, key in enumerate(keys):
        tree.insert(key, i)
    to_delete = data.draw(
        st.lists(st.sampled_from(list(enumerate(keys))), max_size=len(keys), unique=True)
    )
    for i, key in to_delete:
        assert tree.delete(key, i)
    remaining = {(k, i) for i, k in enumerate(keys)} - {(k, i) for i, k in to_delete}
    assert len(tree) == len(remaining)
    for key, i in remaining:
        assert i in tree.search(key)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(st.integers(-50, 50), st.integers()), max_size=300))
def test_insert_many_matches_one_by_one(pairs):
    one_by_one, bulk = BPlusTree(order=5), BPlusTree(order=5)
    bulk.insert(0, "existing")
    one_by_one.insert(0, "existing")
    for key, value in pairs:
        one_by_one.insert(key, value)
    bulk.insert_many([k for k, _ in pairs], [v for _, v in pairs])
    # Equal keys keep their input order: the sort is stable.
    assert list(bulk.range_scan()) == list(one_by_one.range_scan())
    assert len(bulk) == len(one_by_one)
