"""Tests for the transaction manager lifecycle."""

import threading

import pytest

from repro.arrowfmt.datatypes import INT64, UTF8
from repro.errors import TransactionAborted
from repro.storage.block_store import BlockStore
from repro.storage.data_table import DataTable
from repro.storage.layout import BlockLayout, ColumnSpec
from repro.txn.manager import TransactionManager
from repro.txn.timestamps import is_aborted
from repro.wal.manager import LogManager


@pytest.fixture
def tm():
    return TransactionManager()


@pytest.fixture
def table():
    layout = BlockLayout([ColumnSpec("id", INT64), ColumnSpec("s", UTF8)])
    return DataTable(BlockStore(), layout, "t")


class TestLifecycle:
    def test_commit_stamps_all_records(self, tm, table):
        txn = tm.begin()
        table.insert(txn, {0: 1, 1: "a"})
        table.insert(txn, {0: 2, 1: "b"})
        commit_ts = tm.commit(txn)
        assert all(r.timestamp == commit_ts for r in txn.undo_buffer)
        assert txn.commit_ts == commit_ts

    def test_double_commit_rejected(self, tm):
        txn = tm.begin()
        tm.commit(txn)
        with pytest.raises(TransactionAborted):
            tm.commit(txn)

    def test_commit_after_abort_rejected(self, tm):
        txn = tm.begin()
        tm.abort(txn)
        with pytest.raises(TransactionAborted):
            tm.commit(txn)

    def test_must_abort_commit_rolls_back(self, tm, table):
        txn = tm.begin()
        slot = table.insert(txn, {0: 1, 1: "a"})
        txn.must_abort = True
        with pytest.raises(TransactionAborted):
            tm.commit(txn)
        assert table.select(tm.begin(), slot) is None

    def test_abort_marks_records_aborted(self, tm, table):
        txn = tm.begin()
        table.insert(txn, {0: 1, 1: "a"})
        tm.abort(txn)
        assert all(is_aborted(r.timestamp) for r in txn.undo_buffer)

    def test_active_tracking(self, tm):
        a = tm.begin()
        b = tm.begin()
        assert tm.active_count == 2
        tm.commit(a)
        tm.abort(b)
        assert tm.active_count == 0


class _ReaderAwareLock:
    """Wraps the manager's ``_lock``; sets ``parked`` when ``reader``
    tries to take it (and then blocks like the real lock would)."""

    def __init__(self, inner: threading.Lock, parked: threading.Event) -> None:
        self._inner = inner
        self.parked = parked
        self.reader: threading.Thread | None = None

    def __enter__(self):
        if threading.current_thread() is self.reader:
            self.parked.set()
        self._inner.acquire()
        return self

    def __exit__(self, *exc_info) -> None:
        self._inner.release()


class TestCommitStampingWindow:
    def test_reader_begun_mid_stamp_sees_both_writes_or_neither(self, tm, table):
        """A reader that starts between the stamping of a commit's first
        and second undo record must not see a torn commit.

        ``begin`` registers the reader in ``_active`` under ``_lock``,
        which the commit holds while stamping, so the reader cannot
        return from ``begin`` (let alone read) until every record is
        stamped.  The committer pauses after the first record until the
        reader has either blocked on ``_lock`` or finished reading, so
        the schedule is the same on every run.
        """
        parked = threading.Event()
        lock = tm._lock = _ReaderAwareLock(tm._lock, parked)
        seen: list[tuple[bool, bool]] = []

        writer = tm.begin()
        slots = [table.insert(writer, {0: i, 1: f"row{i}"}) for i in range(2)]

        def read() -> None:
            txn = tm.begin()
            seen.append(tuple(table.select(txn, s) is not None for s in slots))
            parked.set()
            tm.commit(txn)

        class PausingUndo(list):
            def __iter__(self):
                first, *rest = list.__iter__(self)
                yield first
                lock.reader = threading.Thread(target=read)
                lock.reader.start()
                assert parked.wait(5.0), "reader neither blocked nor finished"
                yield from rest

        writer.undo_buffer = PausingUndo(writer.undo_buffer)
        tm.commit(writer)
        lock.reader.join(5.0)
        assert not lock.reader.is_alive()
        assert seen in ([(True, True)], [(False, False)])


class TestGcInterface:
    def test_oldest_active_start(self, tm):
        a = tm.begin()
        b = tm.begin()
        assert tm.oldest_active_start() == a.start_ts
        tm.commit(a)
        assert tm.oldest_active_start() == b.start_ts
        tm.commit(b)
        assert tm.oldest_active_start() > b.start_ts

    def test_drain_respects_horizon(self, tm):
        a = tm.begin()
        holder = tm.begin()  # keeps the horizon low
        tm.commit(a)
        assert tm.drain_completed(tm.oldest_active_start()) == []
        tm.commit(holder)
        drained = tm.drain_completed(tm.oldest_active_start())
        assert {t.start_ts for t in drained} == {a.start_ts, holder.start_ts}

    def test_pending_gc_count(self, tm):
        txn = tm.begin()
        tm.commit(txn)
        assert tm.pending_gc_count == 1


class TestDurability:
    def test_no_log_manager_is_immediately_durable(self, tm):
        txn = tm.begin()
        tm.commit(txn)
        assert txn.is_durable

    def test_callback_fires_after_flush(self, table):
        log = LogManager(synchronous=False)
        tm = TransactionManager(log_manager=log)
        txn = tm.begin()
        table.insert(txn, {0: 1, 1: "a"})
        fired = []
        tm.commit(txn, callback=lambda: fired.append(True))
        assert not fired  # speculative: commit record queued, not flushed
        assert not txn.is_durable
        log.flush()
        assert fired == [True]
        assert txn.is_durable

    def test_read_only_txn_is_durable_but_writes_no_bytes(self, table):
        log = LogManager(synchronous=True)
        tm = TransactionManager(log_manager=log)
        txn = tm.begin()
        tm.commit(txn)
        assert txn.is_durable
        assert log.bytes_written == 0

    def test_wait_durable(self, table):
        log = LogManager(synchronous=False)
        tm = TransactionManager(log_manager=log)
        txn = tm.begin()
        table.insert(txn, {0: 1, 1: "a"})
        tm.commit(txn)
        flusher = threading.Timer(0.02, log.flush)
        flusher.start()
        assert txn.wait_durable(timeout=2.0)
        flusher.join()

    def test_abort_is_trivially_durable(self, table):
        log = LogManager(synchronous=False)
        tm = TransactionManager(log_manager=log)
        txn = tm.begin()
        table.insert(txn, {0: 1, 1: "a"})
        tm.abort(txn)
        assert txn.is_durable
        log.flush()
        assert log.bytes_written == 0
