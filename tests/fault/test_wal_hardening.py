"""Tests for the crash-safe WAL hardening: failure-atomic flush, background
survival, degraded read-only mode, and shutdown semantics."""

import threading
import time

import pytest

from repro import ColumnSpec, Database, DegradedError, INT64, UTF8
from repro.fault import FaultSchedule, FaultSpec, FaultyDevice
from repro.wal.manager import LogManager
from repro.wal.records import decode_stream


def make_db(device=None, degrade_after=5):
    db = Database(log_device=device)
    db.log_manager.degrade_after = degrade_after
    db.log_manager.synchronous = False
    db.create_table("t", [ColumnSpec("id", INT64), ColumnSpec("s", UTF8)])
    return db


def insert_txn(db, i):
    table = db.catalog.table("t")
    txn = db.begin()
    table.insert(txn, {0: i, 1: f"row-{i}"})
    db.commit(txn)
    return txn


class TestFailureAtomicFlush:
    def test_failed_flush_persists_nothing_and_fires_no_callbacks(self):
        device = FaultyDevice(
            schedule=FaultSchedule([FaultSpec("write", 1, "short_write")])
        )
        db = make_db(device)
        fired = []
        for i in range(2):
            insert_txn(db, i).on_durable(lambda i=i: fired.append(i))
        with pytest.raises(OSError):
            db.log_manager.flush()
        assert fired == []
        assert db.log_manager.pending_count == 2
        assert db.log_manager.transactions_persisted == 0
        # The partial bytes were rewound: the device holds no torn record.
        assert device.image() == b""

    def test_retry_after_failure_yields_a_clean_ordered_log(self):
        device = FaultyDevice(
            schedule=FaultSchedule([FaultSpec("write", 2, "short_write")])
        )
        db = make_db(device)
        committed = [insert_txn(db, i).commit_ts for i in range(2)]
        with pytest.raises(OSError):
            db.log_manager.flush()
        # A transaction submitted between failure and retry must flush
        # *after* the re-queued batch.
        committed.append(insert_txn(db, 2).commit_ts)
        assert db.log_manager.flush() == 3
        decoded = decode_stream(db.log_contents())
        assert [t.commit_ts for t in decoded] == committed
        assert db.log_manager.consecutive_flush_failures == 0

    def test_callback_error_is_isolated_and_counted(self):
        db = make_db()
        fired = []
        txn1 = insert_txn(db, 1)
        txn2 = insert_txn(db, 2)
        txn1.on_durable(lambda: (_ for _ in ()).throw(RuntimeError("client died")))
        txn1.on_durable(lambda: fired.append("txn1-second"))
        txn2.on_durable(lambda: fired.append("txn2"))
        assert db.log_manager.flush() == 2  # does not raise
        assert fired == ["txn1-second", "txn2"]
        assert int(db.obs.counter("wal.callback_errors_total").value) == 1

    def test_unrewindable_device_degrades_immediately(self):
        class AppendOnly:
            def __init__(self):
                self.calls = 0

            def write(self, data):
                raise OSError("dead disk")

            def flush(self):
                pass

        manager = LogManager(device=AppendOnly(), synchronous=False)
        from repro.txn.context import TransactionContext

        txn = TransactionContext(start_ts=1, txn_id=-1)
        from repro.txn.redo import RedoRecord
        from repro.storage.projection import ProjectedRow
        from repro.storage.tuple_slot import TupleSlot

        txn.redo_buffer.append(
            RedoRecord("t", TupleSlot(0, 0), "insert", ProjectedRow({0: 1}))
        )
        txn.commit_ts = 1
        manager.submit(txn)
        with pytest.raises(OSError):
            manager.flush()
        assert manager.degraded
        assert "unrewindable" in manager.degraded_reason


class TestBackgroundThread:
    def test_survives_flush_failures_and_recovers(self):
        device = FaultyDevice(
            schedule=FaultSchedule(
                [FaultSpec("fsync", 1, "io_error"), FaultSpec("fsync", 2, "io_error")]
            )
        )
        db = make_db(device)
        txn = insert_txn(db, 1)
        db.log_manager.start_background(interval=0.001, max_backoff=0.02)
        assert txn.wait_durable(timeout=5.0)
        db.log_manager.stop_background()
        assert db.log_manager.flush_failures >= 1
        assert not db.log_manager.degraded
        assert db.obs.gauge("wal.healthy").value == 1.0

    def test_stop_background_is_idempotent(self):
        db = make_db()
        db.log_manager.start_background(interval=0.001)
        db.log_manager.stop_background()
        db.log_manager.stop_background()  # second call is a no-op
        assert db.log_manager._background is None

    def test_stop_background_from_durability_callback(self):
        """A callback stopping the manager runs on the flusher thread; the
        self-join guard must prevent a deadlock."""
        db = make_db()
        txn = insert_txn(db, 1)
        stopped = threading.Event()

        def stop_from_callback():
            db.log_manager.stop_background()
            stopped.set()

        txn.on_durable(stop_from_callback)
        db.log_manager.start_background(interval=0.001)
        assert stopped.wait(timeout=5.0)
        db.log_manager.stop_background()  # idempotent cleanup


class TestDegradedMode:
    def persistent_failure_db(self):
        specs = [FaultSpec("fsync", i, "io_error") for i in range(1, 30)]
        device = FaultyDevice(schedule=FaultSchedule(specs))
        return make_db(device, degrade_after=2)

    def test_persistent_failures_trip_read_only_mode(self):
        db = self.persistent_failure_db()
        insert_txn(db, 1)
        for _ in range(2):
            with pytest.raises(OSError):
                db.log_manager.flush()
        assert db.degraded
        assert db.health()["status"] == "degraded"
        assert db.health()["wal"]["healthy"] is False
        assert db.obs.gauge("db.degraded").value == 1.0

    def test_degraded_mode_rejects_writers_but_serves_reads(self):
        db = self.persistent_failure_db()
        insert_txn(db, 1)
        for _ in range(2):
            with pytest.raises(OSError):
                db.log_manager.flush()
        table = db.catalog.table("t")
        txn = db.begin()
        with pytest.raises(DegradedError):
            table.insert(txn, {0: 99, 1: "rejected"})
        db.abort(txn)
        reader = db.begin()
        assert sum(1 for _ in table.scan(reader)) == 1
        db.commit(reader)
        assert db.run_maintenance() == 0

    def test_commit_of_in_flight_writer_raises_degraded(self):
        db = self.persistent_failure_db()
        table = db.catalog.table("t")
        txn = db.begin()
        table.insert(txn, {0: 1, 1: "in flight"})
        # The device dies while the writer is open.
        insert_txn(db, 2)
        for _ in range(2):
            with pytest.raises(OSError):
                db.log_manager.flush()
        with pytest.raises(DegradedError):
            db.commit(txn)
        assert not txn.is_active

    def test_degraded_reason_is_sticky(self):
        db = self.persistent_failure_db()
        insert_txn(db, 1)
        for _ in range(2):
            with pytest.raises(OSError):
                db.log_manager.flush()
        first = db.health()["degraded_reason"]
        db.txn_manager.enter_degraded("a later, different reason")
        assert db.health()["degraded_reason"] == first


class TestShutdown:
    def test_close_surfaces_a_failed_final_flush(self):
        specs = [FaultSpec("fsync", i, "io_error") for i in range(1, 10)]
        device = FaultyDevice(schedule=FaultSchedule(specs))
        db = make_db(device)
        insert_txn(db, 1)
        with pytest.raises(OSError):
            db.close()

    def test_close_surfaces_background_drain_error(self):
        specs = [FaultSpec("fsync", i, "io_error") for i in range(1, 50)]
        device = FaultyDevice(schedule=FaultSchedule(specs))
        db = make_db(device, degrade_after=1000)
        db.log_manager.start_background(interval=0.001, max_backoff=0.01)
        insert_txn(db, 1)
        time.sleep(0.02)
        with pytest.raises(OSError):
            db.close()

    def test_clean_close_is_silent(self):
        db = make_db()
        insert_txn(db, 1)
        db.start_background(log_interval=0.001)
        db.close()
        assert db.log_manager.pending_count == 0
