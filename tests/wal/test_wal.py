"""Tests for log records, the log manager, and recovery."""

import io

import pytest

from repro import Database
from repro.arrowfmt.datatypes import BINARY, FLOAT64, INT64, UINT64, UTF8
from repro.errors import RecoveryError
from repro.storage.block_store import BlockStore
from repro.storage.data_table import DataTable
from repro.storage.layout import BlockLayout, ColumnSpec
from repro.txn.manager import TransactionManager
from repro.wal.manager import LogManager
from repro.wal.records import decode_stream, encode_transaction
from repro.wal.recovery import RecoveryManager


def make_layout():
    return BlockLayout(
        [ColumnSpec("id", INT64), ColumnSpec("s", UTF8), ColumnSpec("f", FLOAT64)]
    )


@pytest.fixture
def setup():
    log = LogManager()
    tm = TransactionManager(log_manager=log)
    table = DataTable(BlockStore(), make_layout(), "t")
    return log, tm, table


class TestRecordEncoding:
    def test_roundtrip_all_value_types(self, setup):
        log, tm, table = setup
        txn = tm.begin()
        table.insert(txn, {0: -5, 1: "héllo", 2: 3.25})
        table.insert(txn, {0: 0, 1: None, 2: None})
        tm.commit(txn)
        [decoded] = decode_stream(log.contents())
        assert decoded.commit_ts == txn.commit_ts
        ops = decoded.operations
        assert ops[0].values == {0: -5, 1: "héllo", 2: 3.25}
        assert ops[1].values == {0: 0, 1: None, 2: None}

    def test_update_and_delete_ops(self, setup):
        log, tm, table = setup
        txn = tm.begin()
        slot = table.insert(txn, {0: 1, 1: "x", 2: 0.0})
        tm.commit(txn)
        txn = tm.begin()
        table.update(txn, slot, {2: 9.0})
        table.delete(txn, slot)
        tm.commit(txn)
        decoded = decode_stream(log.contents())
        assert [op.op for op in decoded[1].operations] == ["update", "delete"]
        assert decoded[1].operations[0].values == {2: 9.0}
        assert decoded[1].operations[1].values == {}

    def test_read_only_txn_encodes_to_nothing(self, setup):
        _, tm, _ = setup
        txn = tm.begin()
        tm.commit(txn)
        assert encode_transaction(txn) == b""

    def test_uncommitted_txn_rejected(self, setup):
        _, tm, table = setup
        txn = tm.begin()
        table.insert(txn, {0: 1, 1: "x", 2: 0.0})
        with pytest.raises(RecoveryError):
            encode_transaction(txn)

    def test_truncated_stream_detected(self, setup):
        log, tm, table = setup
        txn = tm.begin()
        table.insert(txn, {0: 1, 1: "x", 2: 0.0})
        tm.commit(txn)
        raw = log.contents()
        with pytest.raises(RecoveryError):
            decode_stream(raw[:-3])

    def test_commit_order_preserved(self, setup):
        log, tm, table = setup
        for i in range(5):
            txn = tm.begin()
            table.insert(txn, {0: i, 1: "v", 2: 0.0})
            tm.commit(txn)
        decoded = decode_stream(log.contents())
        timestamps = [t.commit_ts for t in decoded]
        assert timestamps == sorted(timestamps)


class TestLogManager:
    def test_group_commit_batches(self):
        log = LogManager(synchronous=False)
        tm = TransactionManager(log_manager=log)
        table = DataTable(BlockStore(), make_layout(), "t")
        txns = []
        for i in range(4):
            txn = tm.begin()
            table.insert(txn, {0: i, 1: "v", 2: 0.0})
            tm.commit(txn)
            txns.append(txn)
        assert log.pending_count == 4
        assert log.flush() == 4
        assert log.flush_count == 1
        assert all(t.is_durable for t in txns)

    def test_background_flusher(self):
        log = LogManager(synchronous=False)
        tm = TransactionManager(log_manager=log)
        table = DataTable(BlockStore(), make_layout(), "t")
        log.start_background(interval=0.002)
        try:
            txn = tm.begin()
            table.insert(txn, {0: 1, 1: "v", 2: 0.0})
            tm.commit(txn)
            assert txn.wait_durable(timeout=2.0)
        finally:
            log.stop_background()

    def test_custom_device(self):
        device = io.BytesIO()
        log = LogManager(device=device)
        tm = TransactionManager(log_manager=log)
        table = DataTable(BlockStore(), make_layout(), "t")
        txn = tm.begin()
        table.insert(txn, {0: 1, 1: "v", 2: 0.0})
        tm.commit(txn)
        assert len(device.getvalue()) == log.bytes_written > 0


class TestRecovery:
    def replay_into_fresh(self, raw):
        tm = TransactionManager()
        table = DataTable(BlockStore(), make_layout(), "t")
        recovery = RecoveryManager(tm, {"t": table})
        count = recovery.replay(raw)
        return tm, table, count

    def test_full_replay(self, setup):
        log, tm, table = setup
        txn = tm.begin()
        slots = [table.insert(txn, {0: i, 1: f"row{i}", 2: i / 2}) for i in range(10)]
        tm.commit(txn)
        txn = tm.begin()
        table.update(txn, slots[3], {1: "updated"})
        table.delete(txn, slots[7])
        tm.commit(txn)

        tm2, table2, count = self.replay_into_fresh(log.contents())
        assert count == 2
        reader = tm2.begin()
        rows = {row.get(0): row.get(1) for _, row in table2.scan(reader)}
        assert rows[3] == "updated"
        assert 7 not in rows
        assert len(rows) == 9

    def test_aborted_txn_absent_from_log(self, setup):
        log, tm, table = setup
        txn = tm.begin()
        table.insert(txn, {0: 1, 1: "keep", 2: 0.0})
        tm.commit(txn)
        loser = tm.begin()
        table.insert(loser, {0: 2, 1: "lost", 2: 0.0})
        tm.abort(loser)
        _, table2, count = self.replay_into_fresh(log.contents())
        assert count == 1
        tm2 = TransactionManager()
        # only the committed row survives

    def test_unknown_table_rejected(self, setup):
        log, tm, table = setup
        txn = tm.begin()
        table.insert(txn, {0: 1, 1: "x", 2: 0.0})
        tm.commit(txn)
        recovery = RecoveryManager(TransactionManager(), {"other": table})
        with pytest.raises(RecoveryError):
            recovery.replay(log.contents())

    def test_update_before_insert_rejected(self, setup):
        log, tm, table = setup
        txn = tm.begin()
        slot = table.insert(txn, {0: 1, 1: "x", 2: 0.0})
        tm.commit(txn)
        txn = tm.begin()
        table.update(txn, slot, {0: 2})
        tm.commit(txn)
        raw = log.contents()
        # Replay only the second transaction: its slot was never mapped.
        tm_f = TransactionManager()
        table_f = DataTable(BlockStore(), make_layout(), "t")
        recovery = RecoveryManager(tm_f, {"t": table_f})
        first_len = len(raw) - self._second_txn_length(raw)
        with pytest.raises(RecoveryError):
            recovery.replay(raw[first_len:])

    @staticmethod
    def _second_txn_length(raw):
        # Find the second 'TXN<' marker to split the stream.
        second = raw.index(b"TXN<", 4)
        return len(raw) - second

    def test_varlen_values_survive_replay(self, setup):
        log, tm, table = setup
        long_value = "<" * 500
        txn = tm.begin()
        table.insert(txn, {0: 1, 1: long_value, 2: 0.0})
        tm.commit(txn)
        tm2, table2, _ = self.replay_into_fresh(log.contents())
        reader = tm2.begin()
        [(_, row)] = list(table2.scan(reader))
        assert row.get(1) == long_value


class TestUnsignedValues:
    """A ``UINT64`` value at or above 2**63 has no signed 64-bit encoding."""

    def test_uint64_above_int64_range_commits_recovers_and_stays_durable(self):
        columns = [ColumnSpec("id", INT64), ColumnSpec("u", UINT64)]
        db = Database()
        table = db.create_table("u", columns).table
        with db.transaction() as big:
            table.insert(big, {0: 1, 1: 2**64 - 1})
        with db.transaction() as later:
            table.insert(later, {0: 2, 1: 2**63})
        with db.transaction() as small:
            table.insert(small, {0: 3, 1: 7})
        db.quiesce()
        assert big.is_durable and later.is_durable and small.is_durable

        fresh = Database()
        fresh.create_table("u", columns)
        assert fresh.recover_from(db.log_contents()) == 3
        reader = fresh.begin()
        rows = sorted(row.to_dict()[1] for _, row in fresh.catalog.table("u").scan(reader))
        assert rows == [7, 2**63, 2**64 - 1]


class TestUnloggableValues:
    """Storage takes values the log cannot encode.  The write that carries
    one fails inside the caller's transaction, before any commit timestamp
    is drawn, so the log stays writable and recovers exactly the good rows."""

    COLUMNS = [ColumnSpec("id", INT64), ColumnSpec("f", FLOAT64), ColumnSpec("b", BINARY)]

    @pytest.mark.parametrize("write", ["insert", "update", "place"])
    @pytest.mark.parametrize(
        "column, value, error",
        [(1, 10**30, OverflowError), (2, bytearray(b"x"), RecoveryError)],
        ids=["int-past-64-bits", "bytearray"],
    )
    def test_rejected_before_the_commit_stamp(self, write, column, value, error):
        db = Database()
        table = db.create_table("t", self.COLUMNS).table
        with db.transaction() as txn:
            slot = table.insert(txn, {0: 1, 1: 1.5, 2: b"a"})
        bad = {0: 2, 1: 2.5, 2: b"b", column: value}
        with pytest.raises(error, match="cannot log"):
            with db.transaction() as txn:
                if write == "insert":
                    table.insert(txn, bad)
                elif write == "update":
                    table.update(txn, slot, {column: value})
                else:
                    table.place(txn, [bad])
        with db.transaction() as txn:
            table.insert(txn, {0: 3, 1: 3.5, 2: b"c"})
        assert db.log_manager.flush() == 0  # nothing left queued
        assert txn.is_durable

        fresh = Database()
        fresh.create_table("t", self.COLUMNS)
        assert fresh.recover_from(db.log_contents()) == 2
        reader = fresh.begin()
        rows = sorted(tuple(row.to_dict().values()) for _, row in fresh.catalog.table("t").scan(reader))
        assert rows == [(1, 1.5, b"a"), (3, 3.5, b"c")]
