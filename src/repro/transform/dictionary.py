"""The alternative cold format: dictionary compression (Section 4.4).

Instead of one contiguous values buffer, the gather critical section builds
a *sorted* set of distinct values (the dictionary), repoints each long
entry at its dictionary word and emits the array of dictionary codes — the
encoding found in Parquet and ORC.  It shares the gather's prelude (the
block-at-a-time decode of every entry region), then sorts and deduplicates
the decoded values with one ``np.unique``; Figure 12 measures what the
sort costs on top of the plain gather.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.transform.gather import (
    compute_fixed_metadata,
    decode_varlen_columns,
    install_gathered,
    reclaim,
)

if TYPE_CHECKING:
    from repro.storage.block import RawBlock


@dataclass
class DictionaryStats:
    """What one dictionary-compression pass did."""

    live_tuples: int = 0
    dictionary_sizes: dict[int, int] = field(default_factory=dict)
    codes_bytes: int = 0
    values_bytes: int = 0
    null_counts: dict[int, int] = field(default_factory=dict)


def dictionary_compress_block(
    block: "RawBlock",
    defer: Callable[[Callable[[], None]], None] | None = None,
) -> DictionaryStats:
    """Compress every varlen column of ``block`` into codes + dictionary."""
    n, columns, to_free = decode_varlen_columns(block, "dictionary compression")
    stats = DictionaryStats(live_tuples=n)
    for column in columns:
        rows = np.flatnonzero(column.valid)
        data = column.values.tobytes()
        bounds = zip(column.offsets[rows].tolist(), column.offsets[rows + 1].tolist())
        row_values = np.empty(len(rows), dtype=object)
        row_values[:] = [data[start:end] for start, end in bounds]
        # Object arrays sort with Python's bytes ordering: the order of
        # ``sorted(set(values))``.
        distinct, inverse = np.unique(row_values, return_inverse=True)
        words: list[bytes] = distinct.tolist()
        codes = np.zeros(n, dtype=np.int32)
        codes[rows] = inverse
        word_offsets = np.zeros(len(words) + 1, dtype=np.int32)
        np.cumsum(np.fromiter(map(len, words), np.int64, len(words)), out=word_offsets[1:])
        dict_values = np.frombuffer(b"".join(words), dtype=np.uint8).copy()
        targets = word_offsets[codes[column.out_of_line]]
        with block.write_latch:
            install_gathered(block, column, word_offsets, dict_values, targets)
            block.dictionaries[column.column_id] = (codes, words)
        stats.dictionary_sizes[column.column_id] = len(words)
        stats.codes_bytes += codes.nbytes
        stats.values_bytes += int(word_offsets[-1])
        stats.null_counts[column.column_id] = n - len(rows)
    compute_fixed_metadata(block, n, stats.null_counts)
    reclaim(block, to_free, defer)
    return stats
