"""Tests for the bounded backoff-with-jitter retry helper."""

import pytest

from repro import ColumnSpec, Database, DegradedError, INT64, TransactionAborted, UTF8
from repro.txn.retry import retry_transaction


def make_db():
    db = Database()
    db.create_table("t", [ColumnSpec("id", INT64), ColumnSpec("s", UTF8)])
    return db


class FixedRng:
    def __init__(self, value=0.5):
        self.value = value
        self.draws = 0

    def random(self):
        self.draws += 1
        return self.value


class TestRetryTransaction:
    def test_commits_and_returns_result(self):
        db = make_db()
        table = db.catalog.table("t")
        slot = retry_transaction(db, lambda txn: table.insert(txn, {0: 1, 1: "x"}))
        reader = db.begin()
        assert table.select(reader, slot).get(0) == 1

    def test_backoff_is_exponential_jittered_and_capped(self):
        db = make_db()
        sleeps = []
        rng = FixedRng(1.0)
        attempts = []

        def body(txn):
            attempts.append(1)
            txn.must_abort = True  # every attempt "conflicts"

        with pytest.raises(TransactionAborted):
            retry_transaction(
                db,
                body,
                retries=4,
                base_backoff=0.01,
                max_backoff=0.05,
                jitter=1.0,
                rng=rng,
                sleep=sleeps.append,
            )
        assert len(attempts) == 5
        # delay_i = min(cap, base * 2^i) * (1 + jitter * 1.0)
        assert sleeps == [0.02, 0.04, 0.08, 0.1]
        assert rng.draws == 4

    def test_retry_counter_and_hook_fire_per_retry(self):
        db = make_db()
        counter = db.obs.counter("workload.txn_retries_total", "test")
        seen = []

        def body(txn):
            if len(seen) < 2:
                txn.must_abort = True
            return "ok"

        result = retry_transaction(
            db,
            body,
            retries=5,
            base_backoff=0.001,
            jitter=0.0,
            retry_counter=counter,
            sleep=seen.append,
        )
        assert result == "ok"
        assert seen == [0.001, 0.002]
        assert int(counter.value) == 2

    def test_zero_backoff_never_sleeps(self):
        db = make_db()
        sleeps = []

        def body(txn):
            if not sleeps_done[0]:
                sleeps_done[0] = True
                txn.must_abort = True
            return 1

        sleeps_done = [False]
        retry_transaction(db, body, base_backoff=0.0, jitter=0.0, sleep=sleeps.append)
        assert sleeps == []

    def test_degraded_error_is_not_retried(self):
        db = make_db()
        attempts = []

        def body(txn):
            attempts.append(1)
            raise DegradedError("read-only")

        with pytest.raises(DegradedError):
            retry_transaction(db, body, retries=5)
        assert len(attempts) == 1

    def test_user_exception_aborts_and_propagates(self):
        db = make_db()
        table = db.catalog.table("t")

        def body(txn):
            table.insert(txn, {0: 5, 1: "doomed"})
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError):
            retry_transaction(db, body)
        reader = db.begin()
        assert list(table.scan(reader)) == []

    def test_exhaustion_raises_transaction_aborted(self):
        db = make_db()

        def body(txn):
            txn.must_abort = True

        with pytest.raises(TransactionAborted, match="3 attempts"):
            retry_transaction(db, body, retries=2, base_backoff=0.0)

    def test_body_that_aborts_itself_is_final(self):
        db = make_db()
        attempts = []

        def body(txn):
            attempts.append(1)
            db.abort(txn)
            return None

        assert retry_transaction(db, body, retries=5) is None
        assert len(attempts) == 1


class FakeClock:
    """A clock the sleep function advances (deterministic deadlines)."""

    def __init__(self):
        self.now = 100.0
        self.sleeps = []

    def __call__(self):
        return self.now

    def sleep(self, seconds):
        self.sleeps.append(seconds)
        self.now += seconds


class TestRetryDeadline:
    """The wall-clock budget: stop retrying when the next sleep would
    cross the deadline (never the first attempt)."""

    def _always_conflicts(self, attempts):
        def body(txn):
            attempts.append(1)
            txn.must_abort = True

        return body

    def test_deadline_stops_retries_without_sleeping_past_it(self):
        db = make_db()
        clock = FakeClock()
        attempts = []
        # base 0.04s, no jitter: sleeps would be 0.04, 0.08, ... but the
        # deadline allows only the first.
        with pytest.raises(TransactionAborted):
            retry_transaction(
                db,
                self._always_conflicts(attempts),
                retries=10,
                base_backoff=0.04,
                max_backoff=1.0,
                jitter=0.0,
                sleep=clock.sleep,
                deadline=clock.now + 0.05,
                clock=clock,
            )
        assert len(attempts) == 2  # first attempt + the one retry that fit
        assert clock.sleeps == [0.04]
        assert clock.now <= 100.0 + 0.05

    def test_first_attempt_runs_even_past_deadline(self):
        db = make_db()
        table = db.catalog.table("t")
        clock = FakeClock()
        slot = retry_transaction(
            db,
            lambda txn: table.insert(txn, {0: 9, 1: "late"}),
            deadline=clock.now - 1.0,  # already expired
            clock=clock,
        )
        reader = db.begin()
        assert table.select(reader, slot).get(0) == 9

    def test_expired_deadline_skips_counter_and_hook(self):
        db = make_db()
        clock = FakeClock()
        counter = db.obs.counter("workload.txn_retries_total", "test")
        attempts = []
        with pytest.raises(TransactionAborted):
            retry_transaction(
                db,
                self._always_conflicts(attempts),
                retries=10,
                base_backoff=1.0,
                max_backoff=1.0,
                jitter=0.0,
                sleep=clock.sleep,
                retry_counter=counter,
                deadline=clock.now + 0.5,  # no 1s sleep ever fits
                clock=clock,
            )
        assert len(attempts) == 1
        assert int(counter.value) == 0
        assert clock.sleeps == []
