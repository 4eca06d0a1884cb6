"""A B+-tree keyed by arbitrary comparable tuples.

Stands in for the OpenBw-Tree [52] the paper uses for all DB-X indexes.
Keys map to *sets* of values (non-unique indexes are first-class: TPC-C's
customer-by-name index needs them).  Leaves are chained for range scans.
"""

from __future__ import annotations

import bisect
import threading
from typing import Any, Iterator, Sequence

from repro.errors import IndexError_

DEFAULT_ORDER = 64


class _Node:
    __slots__ = ("keys", "is_leaf", "children", "values", "next_leaf")

    def __init__(self, is_leaf: bool) -> None:
        self.keys: list[Any] = []
        self.is_leaf = is_leaf
        self.children: list[_Node] = []  # interior only
        self.values: list[list[Any]] = []  # leaf only: parallel to keys
        self.next_leaf: _Node | None = None  # leaf chain for scans


class BPlusTree:
    """An order-``order`` B+-tree with duplicate-value support."""

    def __init__(self, order: int = DEFAULT_ORDER) -> None:
        if order < 3:
            raise IndexError_("B+-tree order must be at least 3")
        self.order = order
        self._root = _Node(is_leaf=True)
        self._size = 0
        self._lock = threading.RLock()

    # ------------------------------------------------------------------ #
    # mutation                                                            #
    # ------------------------------------------------------------------ #

    def insert(self, key: Any, value: Any) -> None:
        """Add ``value`` under ``key`` (duplicates under one key allowed)."""
        with self._lock:
            split = self._insert(self._root, key, value)
            if split is not None:
                sep, right = split
                new_root = _Node(is_leaf=False)
                new_root.keys = [sep]
                new_root.children = [self._root, right]
                self._root = new_root

    def insert_many(self, keys: Sequence[Any], values: Sequence[Any]) -> None:
        """Add every ``(keys[i], values[i])`` pair as one sorted run.

        Sorting first (stable, so equal keys keep their order) makes the
        inserts walk the leaves left to right instead of at random.
        """
        with self._lock:
            for i in sorted(range(len(keys)), key=keys.__getitem__):
                self.insert(keys[i], values[i])

    def delete(self, key: Any, value: Any) -> bool:
        """Remove one (key, value) pair; returns whether it was present.

        Underfull nodes are tolerated (no rebalancing on delete), matching
        the lazy-delete behaviour of most latch-free trees; lookups and
        scans remain correct.
        """
        with self._lock:
            node = self._find_leaf(key)
            i = bisect.bisect_left(node.keys, key)
            if i >= len(node.keys) or node.keys[i] != key:
                return False
            try:
                node.values[i].remove(value)
            except ValueError:
                return False
            if not node.values[i]:
                node.keys.pop(i)
                node.values.pop(i)
            self._size -= 1
            return True

    # ------------------------------------------------------------------ #
    # queries                                                             #
    # ------------------------------------------------------------------ #

    def search(self, key: Any) -> list[Any]:
        """All values stored under ``key`` (empty list when absent)."""
        with self._lock:
            node = self._find_leaf(key)
            i = bisect.bisect_left(node.keys, key)
            if i < len(node.keys) and node.keys[i] == key:
                return list(node.values[i])
            return []

    def range_scan(
        self,
        low: Any = None,
        high: Any = None,
        inclusive_high: bool = True,
    ) -> Iterator[tuple[Any, Any]]:
        """Yield (key, value) pairs with ``low <= key <= high`` in order."""
        with self._lock:
            node = self._find_leaf(low) if low is not None else self._leftmost()
            results = []
            while node is not None:
                for i, key in enumerate(node.keys):
                    if low is not None and key < low:
                        continue
                    if high is not None:
                        if key > high or (key == high and not inclusive_high):
                            return iter(results)
                    for value in node.values[i]:
                        results.append((key, value))
                node = node.next_leaf
            return iter(results)

    def __len__(self) -> int:
        return self._size

    def __contains__(self, key: Any) -> bool:
        return bool(self.search(key))

    def keys(self) -> list[Any]:
        """All distinct keys in order."""
        out = []
        node = self._leftmost()
        while node is not None:
            out.extend(node.keys)
            node = node.next_leaf
        return out

    def depth(self) -> int:
        """Tree height (diagnostic)."""
        depth, node = 1, self._root
        while not node.is_leaf:
            depth += 1
            node = node.children[0]
        return depth

    # ------------------------------------------------------------------ #
    # internals                                                           #
    # ------------------------------------------------------------------ #

    def _find_leaf(self, key: Any) -> _Node:
        node = self._root
        while not node.is_leaf:
            i = bisect.bisect_right(node.keys, key)
            node = node.children[i]
        return node

    def _leftmost(self) -> _Node:
        node = self._root
        while not node.is_leaf:
            node = node.children[0]
        return node

    def _insert(self, node: _Node, key: Any, value: Any):
        if node.is_leaf:
            i = bisect.bisect_left(node.keys, key)
            if i < len(node.keys) and node.keys[i] == key:
                node.values[i].append(value)
            else:
                node.keys.insert(i, key)
                node.values.insert(i, [value])
            self._size += 1
            if len(node.keys) > self.order:
                return self._split_leaf(node)
            return None
        i = bisect.bisect_right(node.keys, key)
        split = self._insert(node.children[i], key, value)
        if split is None:
            return None
        sep, right = split
        node.keys.insert(i, sep)
        node.children.insert(i + 1, right)
        if len(node.keys) > self.order:
            return self._split_interior(node)
        return None

    def _split_leaf(self, node: _Node):
        mid = len(node.keys) // 2
        right = _Node(is_leaf=True)
        right.keys = node.keys[mid:]
        right.values = node.values[mid:]
        node.keys = node.keys[:mid]
        node.values = node.values[:mid]
        right.next_leaf = node.next_leaf
        node.next_leaf = right
        return right.keys[0], right

    def _split_interior(self, node: _Node):
        mid = len(node.keys) // 2
        sep = node.keys[mid]
        right = _Node(is_leaf=False)
        right.keys = node.keys[mid + 1 :]
        right.children = node.children[mid + 1 :]
        node.keys = node.keys[:mid]
        node.children = node.children[: mid + 1]
        return sep, right
