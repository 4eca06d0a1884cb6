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

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.arrowfmt import ipc
from repro.arrowfmt.array import DictionaryArray, VarBinaryArray
from repro.arrowfmt.buffer import Bitmap, Buffer
from repro.arrowfmt.table import RecordBatch, Table
from repro.errors import ArrowFormatError
from repro.obs import trace
from repro.storage.constants import BlockState
from repro.transform.arrow_view import ExportSnapshot, frozen_batch, table_schema

if TYPE_CHECKING:
    from repro.storage.block import RawBlock
    from repro.storage.data_table import DataTable
    from repro.txn.manager import TransactionManager


@dataclass
class FlightStream:
    """One encoded Flight response."""

    payload: bytes
    batches: int
    frozen_blocks: int
    materialized_blocks: int


def export_stream(
    txn_manager: "TransactionManager", table: "DataTable", pool=None
) -> FlightStream:
    """Encode the whole table as an Arrow IPC stream, block by block.

    ``pool`` (a :class:`repro.parallel.WorkerPool`) serializes frozen
    blocks with shared-memory descriptors in worker processes; the encoded
    per-block payloads are stitched back in block order, so the stream is
    byte-identical to the serial one.  Blocks the pool cannot handle
    (hot, dictionary-compressed, fragment lost to a worker crash) are
    encoded in-process.
    """
    return encode_blocks(txn_manager, table, list(table.blocks), pool)


def encode_blocks(
    txn_manager: "TransactionManager",
    table: "DataTable",
    blocks: list["RawBlock"],
    pool=None,
) -> FlightStream:
    """Encode ``blocks`` (in order) as one IPC stream; empty blocks are skipped.

    Every frozen block is pinned up front and stays pinned until the parts
    are joined into the payload: the stream holds views of block memory,
    and the pin is what keeps a writer from changing it underneath.  Hot
    blocks are materialized under one snapshot for the whole stream.
    """
    schema = table_schema(table.layout)
    parts: list[ipc.Part] = [ipc.schema_header(schema)]
    frozen = materialized = 0
    pinned: dict[int, "RawBlock"] = {}
    try:
        for block in blocks:
            if block.begin_frozen_read():
                pinned[block.block_id] = block
        shipped = _serialize_in_pool(pool, pinned.values()) if pool is not None else {}
        with ExportSnapshot(txn_manager) as snapshot:
            for block in blocks:
                payload = shipped.get(block.block_id)
                if payload is not None:
                    parts.append(payload)
                    frozen += 1
                    continue
                is_frozen = block.block_id in pinned
                batch = frozen_batch(block) if is_frozen else snapshot.batch(block)
                if batch.num_rows == 0:
                    continue
                if batch.schema != schema:
                    batch = _decode_dictionary_batch(batch, schema)
                parts += ipc.batch_parts(batch)
                if is_frozen:
                    frozen += 1
                else:
                    materialized += 1
        parts.append(ipc.END_MARKER)
        payload = b"".join(parts)
    finally:
        for block in pinned.values():
            block.end_frozen_read()
    return FlightStream(payload, frozen + materialized, frozen, materialized)


def _serialize_in_pool(pool, blocks) -> dict[int, bytes]:
    """Encoded batches from worker processes, by block id, for the pinned
    blocks whose shared-memory copy matches the current freeze.  Blocks
    missing from the result (no descriptor, fragment lost) are encoded
    in-process by the caller."""
    from repro.parallel.placement import descriptor_if_valid

    descriptors = [descriptor_if_valid(block) for block in blocks]
    jobs = [d for d in descriptors if d is not None and d.num_rows > 0]
    if not jobs:
        return {}
    workers = max(1, getattr(pool, "num_workers", 1))
    size = max(1, -(-len(jobs) // (2 * workers)))
    fragments = [jobs[i : i + size] for i in range(0, len(jobs), size)]
    with trace.span("export.parallel_dispatch", fragments=len(fragments)):
        answers = pool.run_fragments("serialize", [(fragment,) for fragment in fragments])
    shipped: dict[int, bytes] = {}
    for answer in answers:
        for result in answer or ():  # None: encoded in-process instead
            shipped[result["block_id"]] = result["payload"]
    return shipped


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
    blocks = list(table.blocks)
    changed = [
        block
        for block in blocks
        if not (block.state is BlockState.FROZEN and block.frozen_at <= since)
    ]
    stream = encode_blocks(txn_manager, table, changed)
    return IncrementalStream(
        stream.payload,
        cursor,
        stream.frozen_blocks,
        stream.materialized_blocks,
        len(blocks) - len(changed),
    )
