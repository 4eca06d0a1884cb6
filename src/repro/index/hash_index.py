"""A hash index for point lookups (no ordered scans)."""

from __future__ import annotations

import threading
from typing import Any, Sequence


class HashIndex:
    """Key → set of values; the cheap option for equality-only access."""

    def __init__(self) -> None:
        self._buckets: dict[Any, list[Any]] = {}
        self._lock = threading.RLock()
        self._size = 0

    def insert(self, key: Any, value: Any) -> None:
        """Add ``value`` under ``key``."""
        with self._lock:
            self._buckets.setdefault(key, []).append(value)
            self._size += 1

    def insert_many(self, keys: Sequence[Any], values: Sequence[Any]) -> None:
        """Add every ``(keys[i], values[i])`` pair under one lock."""
        with self._lock:
            for key, value in zip(keys, values):
                self._buckets.setdefault(key, []).append(value)
            self._size += len(keys)

    def delete(self, key: Any, value: Any) -> bool:
        """Remove one (key, value) pair; returns whether it was present."""
        with self._lock:
            bucket = self._buckets.get(key)
            if bucket is None:
                return False
            try:
                bucket.remove(value)
            except ValueError:
                return False
            if not bucket:
                del self._buckets[key]
            self._size -= 1
            return True

    def search(self, key: Any) -> list[Any]:
        """All values under ``key`` (empty list when absent)."""
        with self._lock:
            return list(self._buckets.get(key, ()))

    def __contains__(self, key: Any) -> bool:
        return key in self._buckets

    def __len__(self) -> int:
        return self._size

    def keys(self) -> list[Any]:
        """All keys, in no particular order."""
        return list(self._buckets)
