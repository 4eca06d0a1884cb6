"""The commit→durable signal: a flag, with an ``Event`` only for waiters.

Every test runs with a 10 µs switch interval, so the waiter and the
flusher interleave at many more points than the default 5 ms allows.
"""

import sys
import threading
import time

import pytest

from repro.arrowfmt.datatypes import INT64, UTF8
from repro.storage.block_store import BlockStore
from repro.storage.data_table import DataTable
from repro.storage.layout import BlockLayout, ColumnSpec
from repro.txn import context
from repro.txn.context import TransactionContext
from repro.txn.manager import TransactionManager
from repro.wal.manager import LogManager


@pytest.fixture(autouse=True)
def fast_switching():
    before = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    yield
    sys.setswitchinterval(before)


@pytest.fixture
def engine():
    log = LogManager(synchronous=False)
    tm = TransactionManager(log_manager=log)
    layout = BlockLayout([ColumnSpec("id", INT64), ColumnSpec("s", UTF8)])
    return log, tm, DataTable(BlockStore(), layout, "t")


def _committed(engine) -> TransactionContext:
    log, tm, table = engine
    txn = tm.begin()
    table.insert(txn, {0: 1, 1: "a"})
    tm.commit(txn)
    return txn


def _wait_in_thread(txn: TransactionContext, results: list) -> threading.Thread:
    thread = threading.Thread(target=lambda: results.append(txn.wait_durable(10.0)))
    thread.start()
    return thread


def _until_waiting(txn: TransactionContext) -> None:
    """Spin until a waiter has installed the transaction's Event."""
    deadline = time.monotonic() + 10.0
    while txn._durable_event is None:
        assert time.monotonic() < deadline, "no waiter installed an Event"


def test_commit_and_flush_allocate_no_event(engine, monkeypatch):
    log, tm, table = engine
    made = []
    real_event = threading.Event

    def counting_event(*args, **kwargs):
        made.append(1)
        return real_event(*args, **kwargs)

    monkeypatch.setattr(threading, "Event", counting_event)
    fired = []
    txn = tm.begin()
    table.insert(txn, {0: 1, 1: "a"})
    tm.commit(txn, callback=lambda: fired.append(True))
    reader = tm.begin()
    tm.commit(reader)
    assert not txn.is_durable
    log.flush()
    assert txn.is_durable and reader.is_durable
    assert fired == [True]
    assert txn.wait_durable(0.0)
    assert made == []


def test_signal_before_wait_returns_true_at_once(engine):
    txn = _committed(engine)
    engine[0].flush()
    assert txn.wait_durable(timeout=0.0)
    assert txn._durable_event is None


def test_blocked_waiter_wakes_when_flusher_signals(engine):
    txn = _committed(engine)
    results: list[bool] = []
    waiter = _wait_in_thread(txn, results)
    _until_waiting(txn)
    engine[0].flush()
    waiter.join(10.0)
    assert results == [True]


def test_two_waiters_on_one_transaction_both_wake(engine):
    txn = _committed(engine)
    results: list[bool] = []
    waiters = [_wait_in_thread(txn, results) for _ in range(2)]
    _until_waiting(txn)
    engine[0].flush()
    for waiter in waiters:
        waiter.join(10.0)
    assert results == [True, True]


def test_wait_and_signal_racing_never_lose_the_wake_up():
    for _ in range(300):
        txn = TransactionContext(1, (1 << 63) | 1)
        results: list[bool] = []
        waiters = [_wait_in_thread(txn, results) for _ in range(2)]
        txn.signal_durable()
        for waiter in waiters:
            waiter.join(10.0)
        assert results == [True, True]


def test_signal_between_flag_check_and_event_install_is_not_lost(monkeypatch):
    """The schedule the ordering exists for, made deterministic: the
    flusher signals after the waiter found the flag unset but before it
    installed its Event, so the signal finds no Event to set."""
    txn = TransactionContext(1, (1 << 63) | 1)
    real_lock = context._EVENT_LOCK

    class SignalFirst:
        def __enter__(self):
            txn.signal_durable()
            real_lock.acquire()

        def __exit__(self, *exc_info):
            real_lock.release()

    monkeypatch.setattr(context, "_EVENT_LOCK", SignalFirst())
    assert txn.wait_durable(timeout=1.0) is True


def test_timeout_returns_false(engine):
    txn = _committed(engine)
    assert txn.wait_durable(timeout=0.01) is False
    assert not txn.is_durable


def test_raising_callback_does_not_stop_the_others(engine):
    log, tm, table = engine
    fired: list[str] = []

    def boom() -> None:
        fired.append("boom")
        raise RuntimeError("callback failed")

    txn = tm.begin()
    table.insert(txn, {0: 1, 1: "a"})
    txn.on_durable(boom)
    txn.on_durable(lambda: fired.append("after"))
    tm.commit(txn)
    results: list[bool] = []
    waiter = _wait_in_thread(txn, results)
    _until_waiting(txn)
    log.flush()
    waiter.join(10.0)
    assert fired == ["boom", "after"]
    assert results == [True]
    assert log._m_callback_errors.value == 1


def test_signal_durable_reraises_the_first_callback_error():
    txn = TransactionContext(1, (1 << 63) | 1)
    fired: list[int] = []

    def fail(n: int) -> None:
        fired.append(n)
        raise ValueError(n)

    txn.on_durable(lambda: fail(1))
    txn.on_durable(lambda: fail(2))
    txn.on_durable(lambda: fired.append(3))
    with pytest.raises(ValueError, match="1"):
        txn.signal_durable()
    assert fired == [1, 2, 3]
    assert txn.is_durable
    late: list[bool] = []
    txn.on_durable(lambda: late.append(True))
    assert late == [True]
