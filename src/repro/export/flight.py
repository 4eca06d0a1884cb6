"""Arrow Flight RPC export (Section 5, "Improved Wire Protocol"++).

Flight transmits Arrow record batches with no per-value serialization: the
batch body *is* the storage buffers.  For FROZEN blocks the server takes a
read lock (the reader counter) and streams the record batch the freeze
built over the block's buffers — views, not copies — until the stream is
joined.  For hot blocks it must start a transaction and materialize a
snapshot first — one transaction per stream, one latched block copy per
hot block — the cost that makes Flight degrade toward the vectorized
protocol when everything is hot (Figure 15).
"""

from __future__ import annotations

from contextlib import ExitStack
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.arrowfmt import ipc
from repro.arrowfmt.array import DictionaryArray, VarBinaryArray
from repro.arrowfmt.buffer import Bitmap, Buffer
from repro.arrowfmt.table import RecordBatch, Table
from repro.errors import ArrowFormatError
from repro.storage.constants import BlockState
from repro.transform.arrow_view import BlockWalk, table_schema

if TYPE_CHECKING:
    from collections.abc import Callable, Iterable

    from repro.storage.block import RawBlock
    from repro.storage.data_table import DataTable
    from repro.storage.layout import BlockLayout
    from repro.txn.manager import TransactionManager


@dataclass
class FlightStream:
    """One encoded Flight response."""

    payload: bytes
    batches: int
    frozen_blocks: int
    materialized_blocks: int
    rows: int
    #: Ids of the snapshot transactions hot blocks were read under, one
    #: per source with a hot block.
    txn_ids: list[int]


def export_stream(
    txn_manager: "TransactionManager", table: "DataTable"
) -> FlightStream:
    """Encode the whole table as an Arrow IPC stream, block by block."""
    return encode_blocks(table.layout, [(txn_manager, lambda: table.blocks)])


def encode_blocks(
    layout: "BlockLayout",
    sources: "Iterable[tuple[TransactionManager, Callable[[], Iterable[RawBlock]]]]",
) -> FlightStream:
    """Encode the blocks each ``(txn_manager, blocks)`` source lists, in
    order, as one IPC stream with one schema header; empty blocks are
    skipped.

    A source — a table, a block range of one, or one shard's part of a
    sharded table — is read as one :class:`BlockWalk` over ``blocks()``
    (called again under the walk's own snapshot): its frozen blocks
    stay pinned until the parts are joined into the payload (the stream
    holds views of block memory, and the pin is what keeps a writer from
    changing it underneath), and its hot blocks are materialized under one
    snapshot.
    """
    schema = table_schema(layout)
    parts: list[ipc.Part] = [ipc.schema_header(schema)]
    frozen = materialized = rows = 0
    txn_ids: list[int] = []
    with ExitStack() as walks:
        for txn_manager, blocks in sources:
            walk = walks.enter_context(BlockWalk(txn_manager, blocks))
            if walk.txn is not None:
                txn_ids.append(walk.txn.txn_id)
            for block, is_frozen in walk:
                batch = walk.batch(block, is_frozen)
                if batch.num_rows == 0:
                    continue
                if batch.schema != schema:
                    batch = _decode_dictionary_batch(batch, schema)
                parts += ipc.batch_parts(batch)
                rows += batch.num_rows
                if is_frozen:
                    frozen += 1
                else:
                    materialized += 1
        parts.append(ipc.END_MARKER)
        payload = b"".join(parts)
    return FlightStream(
        payload, frozen + materialized, frozen, materialized, rows, txn_ids
    )


def _decode_dictionary_batch(batch: RecordBatch, schema) -> RecordBatch:
    """Re-express dictionary-encoded columns as plain varbinary arrays, so a
    stream mixing both cold formats has one schema."""
    columns = [
        _decode_dictionary(field.dtype, column)
        if isinstance(column, DictionaryArray)
        else column
        for field, column in zip(schema, batch.columns)
    ]
    return RecordBatch(schema, columns)


def _decode_dictionary(dtype, column: DictionaryArray) -> VarBinaryArray:
    """Take each valid row's word out of the dictionary with numpy gathers;
    NULL rows get empty values and a cleared validity bit."""
    n = column.length
    valid = (
        column.validity.to_numpy()[:n]
        if column.validity is not None
        else np.ones(n, dtype=bool)
    )
    codes = column.codes.to_numpy()[valid].astype(np.int64)
    if codes.size and (codes.min() < 0 or codes.max() >= column.dictionary.length):
        raise ArrowFormatError("dictionary code out of range")
    word_offsets = column.dictionary.offsets_numpy().astype(np.int64)
    starts = word_offsets[codes]
    lengths = word_offsets[codes + 1] - starts
    row_lengths = np.zeros(n, dtype=np.int64)
    row_lengths[valid] = lengths
    offsets = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(row_lengths, out=offsets[1:])
    # Output byte j of a row that starts at output position p and word
    # position s comes from word byte s + (j - p).
    positions = offsets[:-1][valid].astype(np.int64)
    source = np.arange(int(offsets[-1])) + np.repeat(starts - positions, lengths)
    words = column.dictionary.values.view(0, column.dictionary.values.size)
    values = words[source]
    validity = None if valid.all() else Bitmap.from_numpy(valid)
    return VarBinaryArray(
        dtype, n, Buffer.from_numpy(offsets), Buffer.from_numpy(values), validity
    )


def client_receive(payload: bytes) -> Table:
    """The client side: land the stream as Arrow with zero value parsing —
    the received arrays are read-only views of ``payload``."""
    return ipc.read_table(payload)


@dataclass
class IncrementalStream:
    """One delta export: payload + the cursor for the next call."""

    payload: bytes
    cursor: int
    frozen_blocks_shipped: int
    hot_blocks_shipped: int
    blocks_skipped: int


def incremental_export(
    txn_manager: "TransactionManager",
    table: "DataTable",
    since: int = 0,
) -> IncrementalStream:
    """Ship only what changed since the last export — ETL without the E.

    Frozen blocks whose ``frozen_at`` stamp predates ``since`` are skipped
    (the previous export already carried them, and FROZEN means unmodified
    since).  Blocks frozen later, and all currently-hot blocks (their
    contents may have changed), are shipped.  Feed the returned ``cursor``
    into the next call.

    This replaces the nightly ETL job the paper's introduction criticizes:
    repeated exports cost O(changed data), not O(database).
    """
    cursor = txn_manager.timestamps.checkpoint()

    def unchanged(block: "RawBlock") -> bool:
        return block.state is BlockState.FROZEN and block.frozen_at <= since

    skipped = sum(map(unchanged, list(table.blocks)))
    stream = encode_blocks(
        table.layout,
        [(txn_manager, lambda: [b for b in list(table.blocks) if not unchanged(b)])],
    )
    return IncrementalStream(
        stream.payload,
        cursor,
        stream.frozen_blocks,
        stream.materialized_blocks,
        skipped,
    )
