"""Flight recorder: journal semantics, timelines, slow log, Chrome trace."""

import json
import threading

import pytest

from repro import ColumnSpec, Database, INT64, UTF8, obs
from repro.errors import TransactionAborted
from repro.obs.recorder import Event, Recorder, broadcast, render_chrome_trace
from repro.obs.registry import MetricRegistry
from repro.obs.trace import Tracer


@pytest.fixture(autouse=True)
def _obs_enabled():
    was = obs.is_enabled()
    obs.configure(enabled=True)
    yield
    obs.configure(enabled=was)


@pytest.fixture
def recorder():
    # local_buffer=1 spills every event immediately: deterministic reads.
    return Recorder(capacity=64, registry=MetricRegistry(), local_buffer=1)


# ---------------------------------------------------------------------- #
# journal semantics                                                       #
# ---------------------------------------------------------------------- #


def test_record_and_read_back(recorder):
    recorder.record("txn.begin", txn_id=7, start_ts=123)
    recorder.record("wal.fsync", offset=100, bytes=50)
    events = recorder.events()
    assert [e.kind for e in events] == ["txn.begin", "wal.fsync"]
    assert events[0].txn_id == 7
    assert events[0].attrs == {"start_ts": 123}
    assert events[0].component == "txn"
    assert events[0].seq < events[1].seq
    assert events[0].ts <= events[1].ts


def test_events_filters_compose(recorder):
    recorder.record("txn.begin", txn_id=1)
    recorder.record("txn.commit", txn_id=1)
    recorder.record("txn.begin", txn_id=2)
    recorder.record("block.frozen", block_id=9)
    assert len(recorder.events(component="txn")) == 3
    assert len(recorder.events(kind="txn.begin")) == 2
    assert len(recorder.events(txn_id=1)) == 2
    assert len(recorder.events(block_id=9)) == 1
    assert [e.kind for e in recorder.events(component="txn", txn_id=1)] == [
        "txn.begin",
        "txn.commit",
    ]


def test_limit_keeps_newest(recorder):
    for i in range(10):
        recorder.record("gc.pass", epoch=i)
    kept = recorder.events(limit=3)
    assert [e.attrs["epoch"] for e in kept] == [7, 8, 9]


def test_thread_local_buffer_visible_before_spill():
    recorder = Recorder(capacity=64, registry=MetricRegistry(), local_buffer=32)
    recorder.record("txn.begin", txn_id=1)
    # Not yet spilled into the ring, but reads must still see it.
    assert len(recorder) == 1
    assert recorder.events()[0].txn_id == 1


def test_drop_oldest_with_exact_accounting():
    registry = MetricRegistry()
    recorder = Recorder(capacity=8, registry=registry, local_buffer=1)
    for i in range(20):
        recorder.record("gc.pass", epoch=i)
    events = recorder.events()
    assert len(events) == 8
    # Newest survive, oldest evicted.
    assert [e.attrs["epoch"] for e in events] == list(range(12, 20))
    assert recorder.events_dropped == 12
    assert registry.counter("obs.events_dropped_total").value == 12


def test_exited_threads_stay_inside_capacity():
    """Threads that exit before their staging list fills never spill it
    themselves; the next read folds their events into the bounded ring,
    counts the evictions and forgets the threads' buffers."""
    registry = MetricRegistry()
    recorder = Recorder(capacity=10, registry=registry)

    def work():
        for i in range(20):
            recorder.record("short.lived", i=i)

    threads = [threading.Thread(target=work) for _ in range(50)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert len(recorder) <= 10
    assert recorder.events_dropped == 990
    assert registry.counter("obs.events_dropped_total").value == 990
    assert recorder._buffers == []


def test_disabled_records_nothing(recorder):
    obs.configure(enabled=False)
    recorder.record("txn.begin", txn_id=1)
    obs.configure(enabled=True)
    assert len(recorder) == 0


def test_clear_empties_journal_and_slow_log(recorder):
    recorder.slow_txn_threshold = 0.0
    recorder.record("txn.begin", txn_id=1)
    recorder.note_txn_complete(1, 1.0, "committed")
    recorder.clear()
    assert len(recorder) == 0
    assert recorder.slow_transactions() == []


def test_event_to_dict_omits_absent_ids():
    event = Event(1, 0.5, "gc.pass", "MainThread", None, None, None)
    assert event.to_dict() == {
        "seq": 1,
        "ts": 0.5,
        "kind": "gc.pass",
        "thread": "MainThread",
    }
    event = Event(2, 0.6, "txn.commit", "MainThread", 7, 3, {"writes": 2})
    d = event.to_dict()
    assert d["txn_id"] == 7 and d["block_id"] == 3 and d["attrs"] == {"writes": 2}


def test_broadcast_reaches_live_recorders(recorder):
    other = Recorder(capacity=16, registry=MetricRegistry(), local_buffer=1)
    broadcast("block.reheated", block_id=4, from_state="FROZEN")
    for r in (recorder, other):
        hits = r.events(kind="block.reheated")
        assert len(hits) == 1 and hits[0].block_id == 4


def test_capacity_validation():
    with pytest.raises(ValueError):
        Recorder(capacity=0)
    with pytest.raises(ValueError):
        Recorder(local_buffer=0)


# ---------------------------------------------------------------------- #
# timelines                                                               #
# ---------------------------------------------------------------------- #


def test_timeline_single_attempt(recorder):
    recorder.record("txn.begin", txn_id=5, start_ts=10)
    recorder.record("wal.flush", txns=1)
    recorder.record("txn.commit", txn_id=5, commit_ts=11)
    tl = recorder.timeline(5, tracer=Tracer())
    assert tl["chain"] == [5]
    assert tl["retries"] == 0
    assert tl["status"] == "committed"
    assert tl["complete"] is True
    assert tl["duration_seconds"] >= 0
    assert [e["kind"] for e in tl["events"]] == ["txn.begin", "txn.commit"]


def test_timeline_follows_retry_chain_both_directions(recorder):
    recorder.record("txn.begin", txn_id=1)
    recorder.record("txn.abort", txn_id=1, conflict=True)
    recorder.record("txn.begin", txn_id=2)
    recorder.record("txn.retry", txn_id=2, prev_txn_id=1, attempt=1)
    recorder.record("txn.abort", txn_id=2, conflict=True)
    recorder.record("txn.begin", txn_id=3)
    recorder.record("txn.retry", txn_id=3, prev_txn_id=2, attempt=2)
    recorder.record("txn.commit", txn_id=3)
    # Asking for any attempt reconstructs the whole chain.
    for attempt in (1, 2, 3):
        tl = recorder.timeline(attempt, tracer=Tracer())
        assert tl["chain"] == [1, 2, 3]
        assert tl["retries"] == 2
        assert tl["status"] == "committed"
        assert tl["complete"] is True


def test_timeline_incomplete_transaction(recorder):
    recorder.record("txn.begin", txn_id=9)
    tl = recorder.timeline(9, tracer=Tracer())
    assert tl["status"] == "unknown"
    assert tl["complete"] is False
    assert tl["end_ts"] is None and tl["duration_seconds"] is None


def test_timeline_attaches_overlapping_spans(recorder):
    tracer = Tracer()
    recorder.record("txn.begin", txn_id=4)
    with tracer.span("wal.flush"):
        pass
    recorder.record("txn.commit", txn_id=4)
    tl = recorder.timeline(4, tracer=tracer)
    assert [s["name"] for s in tl["spans"]] == ["wal.flush"]
    span = tl["spans"][0]
    assert span["duration_seconds"] >= 0 and span["thread"]


def test_slow_log_captures_only_above_threshold():
    recorder = Recorder(
        capacity=64,
        registry=MetricRegistry(),
        slow_txn_threshold=0.5,
        local_buffer=1,
    )
    recorder.record("txn.begin", txn_id=1)
    recorder.record("txn.commit", txn_id=1)
    recorder.note_txn_complete(1, 0.1, "committed")  # fast: not captured
    recorder.note_txn_complete(1, 0.9, "committed")  # slow: captured
    slow = recorder.slow_transactions()
    assert len(slow) == 1
    assert slow[0]["captured_duration_seconds"] == 0.9
    assert slow[0]["captured_status"] == "committed"


def test_slow_log_bounded():
    recorder = Recorder(
        capacity=64,
        registry=MetricRegistry(),
        slow_txn_threshold=0.0,
        slow_log_capacity=3,
        local_buffer=1,
    )
    for txn_id in range(6):
        recorder.record("txn.begin", txn_id=txn_id)
        recorder.note_txn_complete(txn_id, 1.0, "committed")
    slow = recorder.slow_transactions()
    assert [t["txn_id"] for t in slow] == [3, 4, 5]


# ---------------------------------------------------------------------- #
# Chrome trace                                                            #
# ---------------------------------------------------------------------- #


def test_chrome_trace_document_shape(recorder):
    tracer = Tracer()
    with tracer.span("gc.pass"):
        recorder.record("gc.pass", epoch=1)
    recorder.record("txn.commit", txn_id=2, block_id=None)
    doc = json.loads(render_chrome_trace(recorder=recorder, tracer=tracer))
    assert set(doc) >= {"traceEvents", "displayTimeUnit", "otherData"}
    phases = {e["ph"] for e in doc["traceEvents"]}
    assert phases == {"X", "i", "M"}
    slices = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    assert slices[0]["name"] == "gc.pass" and slices[0]["dur"] >= 0
    instants = [e for e in doc["traceEvents"] if e["ph"] == "i"]
    by_name = {e["name"]: e for e in instants}
    assert by_name["txn.commit"]["args"]["txn_id"] == 2
    # Every timestamp is relative to the earliest — all non-negative.
    assert all(e.get("ts", 0) >= 0 for e in doc["traceEvents"])
    meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
    assert all(e["name"] in ("thread_name", "process_name") for e in meta)
    # Single-process capture: everything lives on the coordinator track.
    assert {e["pid"] for e in doc["traceEvents"]} == {1}


# ---------------------------------------------------------------------- #
# engine integration                                                      #
# ---------------------------------------------------------------------- #


def test_database_journals_commit_abort_and_retry():
    db = Database(slow_txn_threshold=0.0)
    info = db.create_table("t", [ColumnSpec("id", INT64), ColumnSpec("v", UTF8)])
    with db.transaction() as txn:
        info.table.insert(txn, {0: 1, 1: "a"})
        committed = txn.txn_id
    doomed = db.begin()
    info.table.insert(doomed, {0: 2, 1: "b"})
    db.abort(doomed)

    tl = db.timeline(committed)
    assert tl["status"] == "committed" and tl["complete"]
    commit_event = next(e for e in tl["events"] if e["kind"] == "txn.commit")
    assert commit_event["attrs"]["writes"] == 1
    assert commit_event["attrs"]["duration_seconds"] >= 0

    aborted_tl = db.timeline(doomed.txn_id)
    assert aborted_tl["status"] == "aborted"

    # slow_txn_threshold=0.0 captures every completed transaction.
    assert len(db.recorder.slow_transactions()) >= 2
    db.close()


def test_retry_chain_recorded_on_conflict():
    db = Database()
    attempts = []

    def body(txn):
        attempts.append(txn.txn_id)
        if len(attempts) == 1:
            # Model losing a write-write conflict on the first attempt.
            raise TransactionAborted("write-write conflict")
        return "done"

    assert db.run_transaction(body, retries=3) == "done"
    assert len(attempts) == 2
    tl = db.timeline(attempts[0])
    assert attempts[1] in tl["chain"]
    assert tl["retries"] >= 1
    assert tl["status"] == "committed"
    db.close()


def test_wal_gc_and_export_events_present():
    db = Database(cold_threshold_epochs=1)
    info = db.create_table(
        "t",
        [ColumnSpec("id", INT64), ColumnSpec("v", UTF8)],
        block_size=1 << 14,
        watch_cold=True,
    )
    with db.transaction() as txn:
        for i in range(info.table.layout.num_slots + 1):
            info.table.insert(txn, {0: i, 1: f"row-{i}"})
    db.quiesce()
    db.freeze_table("t")
    from repro.export import TableExporter

    TableExporter(db.txn_manager, info.table, registry=db.obs).export("arrow-wire")

    kinds = {e.kind for e in db.recorder.events()}
    assert "wal.flush" in kinds
    assert "wal.fsync" in kinds
    assert "gc.pass" in kinds
    assert "block.queued_cold" in kinds
    assert "block.cooling" in kinds
    assert "block.frozen" in kinds
    assert "export.serve" in kinds

    cold = db.recorder.events(kind="block.queued_cold")[0]
    assert cold.attrs["idle_epochs"] >= 1 and cold.attrs["table"] == "t"
    frozen = db.recorder.events(kind="block.frozen")[0]
    assert frozen.attrs["format"] == "gather" and frozen.block_id is not None
    db.close()


def test_block_reheat_event_on_frozen_write():
    db = Database(cold_threshold_epochs=1)
    info = db.create_table(
        "t",
        [ColumnSpec("id", INT64), ColumnSpec("v", UTF8)],
        block_size=1 << 14,
        watch_cold=True,
    )
    with db.transaction() as txn:
        first = None
        for i in range(info.table.layout.num_slots + 1):
            slot = info.table.insert(txn, {0: i, 1: f"row-{i}"})
            if first is None:
                first = slot  # lives in the block that will freeze
    db.freeze_table("t")
    with db.transaction() as txn:
        info.table.update(txn, first, {1: "reheat"})
    reheats = db.recorder.events(kind="block.reheated")
    assert reheats and reheats[0].attrs["from_state"] == "FROZEN"
    db.close()


def test_crash_point_fire_is_journaled(tmp_path):
    from repro.fault.crashpoints import CrashPointInjector, armed, crash_point
    from repro.fault.device import SimulatedCrash

    db = Database()  # a live recorder for broadcast to land in
    with armed(CrashPointInjector("wal.flush.pre_fsync")):
        with pytest.raises(SimulatedCrash):
            crash_point("wal.flush.pre_fsync")
    fires = db.recorder.events(kind="fault.crash_point")
    assert fires and fires[0].attrs["point"] == "wal.flush.pre_fsync"
    db.close()
