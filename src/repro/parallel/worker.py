"""Worker-process side of the parallel scan/export pool.

A worker attaches the arena's shared-memory segments read-only and executes
*fragments*: batches of :class:`~repro.parallel.placement.BlockDescriptor`
to either scan (zone-map pruning, bulk column materialization, NULL masks,
selection vectors) or serialize (Arrow IPC encoding of the block batch).
Workers never see transactions, version chains, or block objects — the
coordinator decides snapshot visibility before dispatching, so everything
here is pure computation over immutable bytes.

Parity with the serial path is by construction, not by reimplementation:
fragments rebuild the same :class:`~repro.arrowfmt.array` objects the
in-process scanner uses (buffer logical sizes included) and run them
through the same ``ipc.write_batch`` / :func:`~repro.query.scan.compute_selection`
code, so scan results and IPC payloads are byte-identical to serial output.
"""

from __future__ import annotations

import os
import signal
from time import perf_counter
from typing import Any

import numpy as np

from repro.arrowfmt import ipc
from repro.arrowfmt.array import FixedSizeArray, VarBinaryArray
from repro.arrowfmt.buffer import Bitmap, Buffer
from repro.arrowfmt.datatypes import Field, Schema, type_from_json
from repro.arrowfmt.table import RecordBatch
from repro.parallel.placement import BlockDescriptor
from repro.query.scan import compute_selection

try:
    from multiprocessing import shared_memory as _shm
except ImportError:  # pragma: no cover
    _shm = None  # type: ignore[assignment]

#: name -> (SharedMemory, flat uint8 view); kept for the worker's lifetime.
_SegmentCache = dict


def _segment_view(cache: _SegmentCache, name: str) -> np.ndarray:
    entry = cache.get(name)
    if entry is None:
        segment = _shm.SharedMemory(name=name)
        entry = (segment, np.frombuffer(segment.buf, dtype=np.uint8))
        cache[name] = entry
    return entry[1]


def _payload_view(cache: _SegmentCache, desc: BlockDescriptor) -> np.ndarray:
    view = _segment_view(cache, desc.segment)
    return view[desc.base_offset : desc.base_offset + desc.nbytes]


# ---------------------------------------------------------------------- #
# rebuilding Arrow structures from a descriptor                           #
# ---------------------------------------------------------------------- #


def _validity(buf: np.ndarray, col, n: int) -> Bitmap | None:
    """Replicates ``arrow_view._prefix_validity`` over the slot payload."""
    region = buf[col.validity_offset : col.validity_offset + col.validity_nbytes]
    bitmap = Bitmap(Buffer(region, (n + 7) // 8), n)
    if n and bitmap.count_set() == n:
        return None
    return bitmap


def descriptor_record_batch(cache: _SegmentCache, desc: BlockDescriptor) -> RecordBatch:
    """The block's record batch, with buffers aliasing shared memory.

    Mirrors ``block_to_record_batch`` for the non-dictionary case: identical
    buffer logical sizes, so IPC serialization is byte-for-byte the same.
    """
    buf = _payload_view(cache, desc)
    n = desc.num_rows
    fields = []
    arrays = []
    for col in desc.columns:
        dtype = type_from_json(col.type_json)
        fields.append(Field(col.name, dtype, nullable=True))
        validity = _validity(buf, col, n)
        if col.is_varlen:
            offsets = Buffer(
                buf[col.offsets_offset : col.offsets_offset + 4 * (n + 1)],
                4 * (n + 1),
            )
            values = Buffer(
                buf[col.values_offset : col.values_offset + col.values_nbytes],
                col.values_nbytes,
            )
            arrays.append(VarBinaryArray(dtype, n, offsets, values, validity))
        else:
            nbytes = n * dtype.byte_width
            values = Buffer(buf[col.data_offset : col.data_offset + nbytes], nbytes)
            arrays.append(FixedSizeArray(dtype, n, values, validity))
    return RecordBatch(Schema(fields), arrays)


# ---------------------------------------------------------------------- #
# fragment execution                                                      #
# ---------------------------------------------------------------------- #


def run_scan_fragment(
    cache: _SegmentCache,
    descriptors: list[BlockDescriptor],
    column_ids: list[int],
    range_filters: dict[int, tuple[float | None, float | None]],
) -> list[dict[str, Any]]:
    """Scan each descriptor; one result dict per block, in input order."""
    return [
        _scan_descriptor(cache, desc, column_ids, range_filters)
        for desc in descriptors
    ]


def _scan_descriptor(
    cache: _SegmentCache,
    desc: BlockDescriptor,
    column_ids: list[int],
    range_filters: dict[int, tuple[float | None, float | None]],
) -> dict[str, Any]:
    batch = descriptor_record_batch(cache, desc)
    n = batch.num_rows
    fixed: dict[int, np.ndarray] = {}
    null_masks: dict[int, np.ndarray] = {}
    varlen: dict[int, tuple] = {}
    filter_columns: dict[int, Any] = {}
    for column_id in column_ids:
        col = desc.columns[column_id]
        array = batch.columns[column_id]
        if not col.is_varlen:
            fixed[column_id] = array.to_numpy()
            if array.null_count:
                null_masks[column_id] = ~array.validity.to_numpy()[:n]
            filter_columns[column_id] = fixed[column_id]
        else:
            valid = (
                array.validity.to_numpy()[:n] if array.validity is not None else None
            )
            varlen[column_id] = (
                array.offsets_numpy(),
                array.values.view(0, array.values.size),
                valid,
            )
            if column_id in range_filters:
                filter_columns[column_id] = array.to_pylist()
    selection = None
    if range_filters and n:
        selection = compute_selection(filter_columns, null_masks, range_filters, n)
    return {
        "block_id": desc.block_id,
        "num_rows": n,
        "fixed": fixed,
        "null_masks": null_masks,
        "varlen": varlen,
        "selection": selection,
    }


def run_serialize_fragment(
    cache: _SegmentCache, descriptors: list[BlockDescriptor]
) -> list[dict[str, Any]]:
    """Arrow-IPC-encode each descriptor's batch; one payload per block."""
    return [
        {
            "block_id": desc.block_id,
            "num_rows": desc.num_rows,
            "payload": ipc.write_batch(descriptor_record_batch(cache, desc)),
        }
        for desc in descriptors
    ]


# ---------------------------------------------------------------------- #
# process entry point                                                     #
# ---------------------------------------------------------------------- #


def _execute(cache: _SegmentCache, kind: str, payload: tuple, telemetry=None) -> Any:
    if kind == "scan":
        descriptors, column_ids, range_filters = payload
        result = run_scan_fragment(cache, descriptors, column_ids, range_filters)
        if telemetry is not None:
            telemetry.counter(
                "parallel.fragment_blocks_total",
                "blocks processed by worker fragments",
            ).inc(len(descriptors))
            telemetry.counter(
                "parallel.fragment_rows_total",
                "rows materialized by worker scan fragments",
            ).inc(sum(r["num_rows"] for r in result))
        return result
    if kind == "serialize":
        (descriptors,) = payload
        result = run_serialize_fragment(cache, descriptors)
        if telemetry is not None:
            telemetry.counter(
                "parallel.fragment_blocks_total",
                "blocks processed by worker fragments",
            ).inc(len(descriptors))
            telemetry.counter(
                "parallel.fragment_bytes_total",
                "Arrow IPC bytes encoded by worker fragments",
            ).inc(sum(len(r["payload"]) for r in result))
        return result
    if kind == "ping":
        return "pong"
    if kind == "crash":  # test hook: simulate a worker dying mid-task
        os._exit(1)
    if kind == "telemetry_burst":  # test hook: stage N events, ship normally
        (count,) = payload
        if telemetry is not None:
            for index in range(count):
                telemetry.record("test.relay_burst", index=index)
        return count
    if kind == "telemetry_crash":  # test hook: stage N events, die unshipped
        (count,) = payload
        if telemetry is not None:
            for index in range(count):
                telemetry.record("test.relay_doomed", index=index)
        os.kill(os.getpid(), signal.SIGKILL)
        return None  # pragma: no cover - unreachable
    raise ValueError(f"unknown fragment kind {kind!r}")


def worker_main(
    worker_index: int, task_queue, result_queue, telemetry_args=None
) -> None:
    """Run fragments until a ``None`` sentinel arrives.

    Results are ``(task_id, worker_index, ok, result_or_error, telemetry)``;
    the coordinator matches them by task id and treats anything it cannot
    match (results of abandoned queries) as stale.  ``telemetry`` is the
    :meth:`~repro.obs.relay.WorkerTelemetry.flush` payload covering the
    task — metric deltas, staged events, drained spans — or ``None`` when
    the pool runs without a relay; a final telemetry-only message with
    ``task_id=None`` is sent at shutdown so nothing staged is lost.

    Tasks are ``(task_id, kind, payload, trace_ctx)``: the trace context
    captured at dispatch is activated around execution, so worker spans
    join the coordinator's causal tree.
    """
    # The coordinator owns shutdown; a Ctrl-C aimed at it should not kill
    # workers mid-IPC (they exit via sentinel or pool stop instead).
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):  # pragma: no cover - non-main thread
        pass
    telemetry = None
    if telemetry_args is not None:
        try:
            from repro.obs.relay import WorkerTelemetry

            telemetry = WorkerTelemetry(worker_index, **telemetry_args)
        except Exception:  # pragma: no cover - telemetry must never wedge work
            telemetry = None
    cache: _SegmentCache = {}
    while True:
        task = task_queue.get()
        if task is None:
            break
        if len(task) == 4:
            task_id, kind, payload, ctx = task
        else:  # pragma: no cover - compatibility with 3-tuple dispatchers
            task_id, kind, payload = task
            ctx = None
        flushed = None
        try:
            if telemetry is not None:
                started = perf_counter()
                with telemetry.activated(ctx):
                    with telemetry.span(
                        f"parallel.{kind}_fragment", task_id=task_id
                    ):
                        result = _execute(cache, kind, payload, telemetry)
                duration = perf_counter() - started
                telemetry.histogram(
                    "parallel.fragment_seconds", "worker-side fragment latency"
                ).observe(duration)
                telemetry.record(
                    "parallel.fragment", fragment_kind=kind, seconds=duration
                )
                flushed = telemetry.flush(ctx)
            else:
                result = _execute(cache, kind, payload)
        except BaseException as exc:  # noqa: BLE001 - report, don't die
            try:
                if telemetry is not None:
                    flushed = telemetry.flush(ctx)
                result_queue.put(
                    (
                        task_id,
                        worker_index,
                        False,
                        f"{type(exc).__name__}: {exc}",
                        flushed,
                    )
                )
            except Exception:  # pragma: no cover - queue torn down
                pass
            continue
        result_queue.put((task_id, worker_index, True, result, flushed))
    if telemetry is not None:
        # Shutdown flush: whatever the last task left behind (idle-period
        # events, profiler stacks) rides out on a telemetry-only message.
        try:
            result_queue.put((None, worker_index, True, None, telemetry.flush()))
        except Exception:  # pragma: no cover - queue torn down
            pass
        telemetry.close()
    # Drop every view over the segments before closing them, or SharedMemory
    # raises BufferError ("exported pointers exist") at interpreter exit.
    # The last task's locals (result arrays are slices of the cached view)
    # and any reference cycles pin buffers, so clear those first.
    task = result = flushed = payload = None  # noqa: F841
    import gc

    gc.collect()
    while cache:
        _, (segment, view) = cache.popitem()
        del view
        try:
            segment.close()
        except BufferError:  # pragma: no cover - still referenced elsewhere
            pass
