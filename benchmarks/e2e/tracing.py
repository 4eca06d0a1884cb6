"""Span recorder wrapped around the engine's public calls, from outside.

The traced run patches timing wrappers over the public entry points of
each layer (``TransactionManager.begin``, ``DataTable.insert``, ...) at
run time; nothing under ``src/`` is edited.  Spans stay in memory and are
written as Chrome-trace JSON when the workload ends.  A span's *self*
time is its duration minus the time its child spans cover, so the layers
of one call tree add up without double counting.
"""

from __future__ import annotations

import contextlib
import json
import threading
from time import perf_counter

# Span record slots.
NAME, START, END, PARENT, TXN, CHILD_SECONDS, THREAD = range(7)

#: Spans written to the Chrome-trace file; the per-layer totals always
#: cover every span, the file is a bounded sample from the start of the run.
MAX_TRACE_EVENTS = 40_000


class Tracer:
    """Records (name, start, end, parent, txn id) spans, per thread."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []
        self._threads = 0
        self._threads_lock = threading.Lock()

    def _stack(self) -> list:
        """This thread's open-span stack; slot 0 holds the thread's number
        (the Chrome-trace ``tid``), never a span."""
        try:
            return self._local.stack
        except AttributeError:
            with self._threads_lock:
                self._threads += 1
                stack = self._local.stack = [self._threads]
            return stack

    @contextlib.contextmanager
    def span(self, name: str, txn: int | None = None):
        """An explicit span opened by the benchmark driver."""
        stack = self._stack()
        parent = stack[-1] if len(stack) > 1 else None
        if txn is None:
            txn = parent[TXN] if parent is not None else -1
        record = [name, 0.0, 0.0, parent, txn, 0.0, stack[0]]
        self.spans.append(record)
        stack.append(record)
        record[START] = perf_counter()
        try:
            yield record
        finally:
            record[END] = end = perf_counter()
            stack.pop()
            if parent is not None:
                parent[CHILD_SECONDS] += end - record[START]

    def wrap(self, name: str, fn, materialize: bool = False):
        """``fn`` timed as a span; ``materialize`` drains a generator inside
        the span (every caller in the repo consumes these fully anyway)."""
        spans = self.spans
        get_stack = self._stack

        def traced(*args, **kwargs):
            stack = get_stack()
            parent = stack[-1] if len(stack) > 1 else None
            txn = parent[TXN] if parent is not None else -1
            record = [name, 0.0, 0.0, parent, txn, 0.0, stack[0]]
            spans.append(record)
            stack.append(record)
            record[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return iter(list(result)) if materialize else result
            finally:
                record[END] = end = perf_counter()
                stack.pop()
                if parent is not None:
                    parent[CHILD_SECONDS] += end - record[START]

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr: str, name: str, materialize: bool = False) -> None:
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, materialize))

    def unpatch_all(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def install(self) -> None:
        """Patch every layer boundary the per-layer metrics are built on."""
        from repro.arrowfmt import ipc
        from repro.db import Database
        from repro.export import flight
        from repro.gc_engine.collector import GarbageCollector
        from repro.index.manager import TableIndex
        from repro.storage.data_table import DataTable
        from repro.transform.transformer import BlockTransformer
        from repro.txn.manager import TransactionManager
        from repro.wal.manager import LogManager

        for owner, attr, name in (
            (TransactionManager, "begin", "txn.begin"),
            (TransactionManager, "commit", "txn.commit"),
            (TransactionManager, "abort", "txn.abort"),
            (DataTable, "insert", "storage.insert"),
            (DataTable, "insert_into", "storage.insert"),
            (DataTable, "update", "storage.update"),
            (DataTable, "select", "storage.select"),
            (DataTable, "delete", "storage.delete"),
            (TableIndex, "lookup", "index.lookup"),
            (TableIndex, "__call__", "index.maintain"),
            (GarbageCollector, "run", "gc_engine.run"),
            (BlockTransformer, "process_queue", "transform.compact"),
            (BlockTransformer, "process_freeze_pending", "transform.freeze"),
            (LogManager, "flush", "wal.flush"),
            (Database, "recover_from", "wal.recover"),
            (flight, "export_stream", "export.serialize"),
            (flight, "client_receive", "export.client"),
            (ipc, "write_batch", "arrowfmt.write_batch"),
            (ipc, "read_table", "arrowfmt.read_table"),
        ):
            self.patch(owner, attr, name)
        self.patch(TableIndex, "range_scan", "index.range_scan", materialize=True)

    # ------------------------------------------------------------------ #
    # read-out                                                            #
    # ------------------------------------------------------------------ #

    def totals(self, since: int = 0) -> dict[str, tuple[int, float, float]]:
        """name → (calls, inclusive seconds, self seconds) over the spans
        recorded from index ``since`` on (finished spans only)."""
        out: dict[str, list] = {}
        for record in self.spans[since:]:
            if record[END] == 0.0:
                continue
            duration = record[END] - record[START]
            entry = out.setdefault(record[NAME], [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += duration
            entry[2] += duration - record[CHILD_SECONDS]
        return {name: tuple(entry) for name, entry in out.items()}

    def write_chrome_trace(self, path) -> int:
        """Write the first ``MAX_TRACE_EVENTS`` spans; returns the count."""
        sample = self.spans[:MAX_TRACE_EVENTS]
        ids = {id(record): i for i, record in enumerate(sample)}
        origin = sample[0][START] if sample else 0.0
        events = []
        for i, record in enumerate(sample):
            if record[END] == 0.0:
                continue
            parent = record[PARENT]
            events.append({
                "name": record[NAME],
                "cat": record[NAME].split(".", 1)[0],
                "ph": "X",
                "pid": 1,
                "tid": record[THREAD],
                "ts": (record[START] - origin) * 1e6,
                "dur": (record[END] - record[START]) * 1e6,
                "args": {
                    "id": i,
                    "parent": ids.get(id(parent), -1) if parent is not None else -1,
                    "txn": record[TXN],
                    "self_us": (record[END] - record[START] - record[CHILD_SECONDS]) * 1e6,
                },
            })
        with open(path, "w") as out:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, out)
        return len(events)


class NullTracer:
    """The untraced run's tracer: spans cost one no-op context manager."""

    spans: list = []

    class _NullSpan:
        def __enter__(self):
            return None

        def __exit__(self, *exc_info):
            return False

    _null = _NullSpan()

    def span(self, name: str, txn: int | None = None):
        return self._null

    def totals(self, since: int = 0) -> dict:
        return {}
