"""Real-thread stress tests: invariants under concurrent load.

These tests run genuinely concurrent transactions (Python threads) against
one table and check global invariants — conservation of money under
transfers, snapshot-consistent readers, index/table agreement — while the
GC and the transformation pipeline run in the background.
"""

from __future__ import annotations

import random
import sys
import threading
import time

import pytest

from repro import ColumnSpec, Database, INT64, TransactionAborted, UTF8
from repro.storage.constants import BlockState


def run_threads(workers):
    errors = []

    def wrap(fn):
        def runner():
            try:
                fn()
            except BaseException as exc:
                errors.append(exc)

        return runner

    threads = [threading.Thread(target=wrap(fn)) for fn in workers]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]


class TestTransferInvariant:
    """The classic bank-transfer conservation check."""

    ACCOUNTS = 20
    INITIAL = 1000

    def build(self):
        db = Database(logging_enabled=False, cold_threshold_epochs=1)
        info = db.create_table(
            "accounts",
            [ColumnSpec("id", INT64), ColumnSpec("balance", INT64)],
            block_size=1 << 14,
            watch_cold=True,
        )
        with db.transaction() as txn:
            slots = [
                info.table.insert(txn, {0: i, 1: self.INITIAL})
                for i in range(self.ACCOUNTS)
            ]
        return db, info, slots

    def total(self, db, info):
        txn = db.begin()
        balances = [row.get(1) for _, row in info.table.scan(txn, [1])]
        db.commit(txn)
        return sum(balances), len(balances)

    def transfer_worker(self, db, info, slots, seed, rounds=60):
        rng = random.Random(seed)

        def work():
            for _ in range(rounds):
                a, b = rng.sample(range(len(slots)), 2)
                amount = rng.randint(1, 50)
                txn = db.begin()
                try:
                    row_a = info.table.select(txn, slots[a], [1])
                    row_b = info.table.select(txn, slots[b], [1])
                    if row_a is None or row_b is None:
                        db.abort(txn)
                        continue
                    ok = info.table.update(txn, slots[a], {1: row_a.get(1) - amount})
                    ok = ok and info.table.update(txn, slots[b], {1: row_b.get(1) + amount})
                    if ok:
                        db.commit(txn)
                    else:
                        db.abort(txn)
                except TransactionAborted:
                    pass

        return work

    def test_money_conserved_under_concurrent_transfers(self):
        db, info, slots = self.build()
        workers = [
            self.transfer_worker(db, info, slots, seed=s) for s in range(4)
        ]
        run_threads(workers)
        total, count = self.total(db, info)
        assert count == self.ACCOUNTS
        assert total == self.ACCOUNTS * self.INITIAL

    def test_money_conserved_under_fine_grained_switching(self):
        """A 10 µs switch interval interleaves transfers inside their
        read-update windows; an aborted record at a chain head must not
        hide a commit newer than the writer's snapshot (a lost update
        shows as money created or destroyed)."""
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            deadline = time.monotonic() + 10.0
            for round_ in range(100):
                if time.monotonic() > deadline:
                    break
                db, info, slots = self.build()
                run_threads(
                    [
                        self.transfer_worker(db, info, slots, seed=round_ * 4 + s)
                        for s in range(4)
                    ]
                )
                total, count = self.total(db, info)
                assert (round_, count, total) == (
                    round_, self.ACCOUNTS, self.ACCOUNTS * self.INITIAL
                )
        finally:
            sys.setswitchinterval(previous)

    def test_money_conserved_with_gc_and_transform(self):
        db, info, slots = self.build()
        stop = threading.Event()

        def maintenance():
            while not stop.is_set():
                db.run_maintenance()

        maintainer = threading.Thread(target=maintenance)
        maintainer.start()
        try:
            run_threads([self.transfer_worker(db, info, slots, seed=s) for s in range(3)])
        finally:
            stop.set()
            maintainer.join()
        total, count = self.total(db, info)
        assert count == self.ACCOUNTS
        assert total == self.ACCOUNTS * self.INITIAL

    def test_snapshot_readers_see_conserved_totals(self):
        db, info, slots = self.build()
        bad_totals = []

        def reader():
            for _ in range(40):
                txn = db.begin()
                balances = [row.get(1) for _, row in info.table.scan(txn, [1])]
                db.commit(txn)
                if sum(balances) != self.ACCOUNTS * self.INITIAL:
                    bad_totals.append(sum(balances))

        run_threads(
            [self.transfer_worker(db, info, slots, seed=9), reader, reader]
        )
        assert not bad_totals, f"snapshot saw non-conserved totals: {bad_totals[:3]}"


class TestIndexTableAgreement:
    def test_index_matches_table_under_churn(self):
        db = Database(logging_enabled=False)
        info = db.create_table(
            "kv",
            [ColumnSpec("k", INT64), ColumnSpec("v", UTF8)],
            block_size=1 << 14,
        )
        index = db.create_index("kv", "pk", ["k"])
        key_range = 50

        def churn(seed):
            rng = random.Random(seed)

            def work():
                for _ in range(80):
                    txn = db.begin()
                    try:
                        key = rng.randrange(key_range)
                        hits = index.lookup(txn, (key,))
                        if hits and rng.random() < 0.4:
                            slot, _ = hits[0]
                            if not info.table.delete(txn, slot):
                                db.abort(txn)
                                continue
                        elif not hits:
                            info.table.insert(txn, {0: key, 1: f"v{key}"})
                        db.commit(txn)
                    except TransactionAborted:
                        pass
                    except Exception:
                        if txn.is_active:
                            db.abort(txn)

            return work

        run_threads([churn(s) for s in range(4)])
        txn = db.begin()
        table_keys = sorted(row.get(0) for _, row in info.table.scan(txn, [0]))
        index_keys = sorted(
            key[0]
            for key, _, _ in index.range_scan(txn)
        )
        db.commit(txn)
        assert table_keys == index_keys


class TestFrozenReadStress:
    def test_concurrent_frozen_reads_and_reheating_writes(self):
        db = Database(logging_enabled=False, cold_threshold_epochs=1)
        info = db.create_table(
            "t",
            [ColumnSpec("id", INT64), ColumnSpec("s", UTF8)],
            block_size=1 << 14,
            watch_cold=True,
        )
        with db.transaction() as txn:
            slots = [
                info.table.insert(txn, {0: i, 1: f"payload-{i}-out-of-line-value"})
                for i in range(info.table.layout.num_slots * 2)
            ]
        db.freeze_table("t")
        from repro.transform.arrow_view import frozen_batch

        read_errors = []

        def arrow_reader():
            for _ in range(60):
                for block in list(info.table.blocks):
                    if block.begin_frozen_read():
                        try:
                            batch = frozen_batch(block)
                            assert batch.num_rows >= 0
                        except Exception as exc:
                            read_errors.append(exc)
                        finally:
                            block.end_frozen_read()

        def writer():
            rng = random.Random(1)
            for _ in range(40):
                txn = db.begin()
                try:
                    slot = rng.choice(slots)
                    info.table.update(txn, slot, {1: "reheated!" + "x" * 20})
                    db.commit(txn)
                except TransactionAborted:
                    pass

        run_threads([arrow_reader, arrow_reader, writer])
        assert not read_errors
        # Reader counters must balance out.
        assert all(b.reader_count == 0 for b in info.table.blocks)
