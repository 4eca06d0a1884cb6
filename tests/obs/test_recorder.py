"""Flight recorder: journal semantics, timelines, slow-transaction
captures, Chrome trace, and one journal per database."""

import json
import sys
import threading

import pytest

from repro import ColumnSpec, Database, INT64, UTF8, obs
from repro.errors import TransactionAborted
from repro.obs.recorder import Event, Recorder, broadcast, render_chrome_trace
from repro.obs.registry import MetricRegistry
from repro.obs.slo import RequestLifecycle
from repro.obs.trace import span


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
    assert recorder.events(limit=0) == []


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
    tl = recorder.timeline(5)
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
        tl = recorder.timeline(attempt)
        assert tl["chain"] == [1, 2, 3]
        assert tl["retries"] == 2
        assert tl["status"] == "committed"
        assert tl["complete"] is True


def test_timeline_incomplete_transaction(recorder):
    recorder.record("txn.begin", txn_id=9)
    tl = recorder.timeline(9)
    assert tl["status"] == "unknown"
    assert tl["complete"] is False
    assert tl["end_ts"] is None and tl["duration_seconds"] is None


def test_timeline_attaches_overlapping_spans(recorder):
    recorder.record("txn.begin", txn_id=4)
    with span("wal.flush", recorder):
        pass
    recorder.record("txn.commit", txn_id=4)
    tl = recorder.timeline(4)
    assert [s["name"] for s in tl["spans"]] == ["wal.flush"]
    attached = tl["spans"][0]
    assert attached["duration_seconds"] >= 0 and attached["thread"]


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
    """A capture is one ``txn.slow`` event in the ring: the ring's
    capacity bounds it, it is evicted with everything else, and it
    carries no txn id of its own (later timelines never nest it)."""
    recorder = Recorder(
        capacity=4,
        registry=MetricRegistry(),
        slow_txn_threshold=0.0,
        local_buffer=1,
    )
    for txn_id in range(6):
        recorder.record("txn.begin", txn_id=txn_id)
        recorder.note_txn_complete(txn_id, 1.0, "committed")
    slow = recorder.slow_transactions()
    assert [t["txn_id"] for t in slow] == [4, 5]
    assert all(e.txn_id is None for e in recorder.events(kind="txn.slow"))
    assert [e["kind"] for e in recorder.timeline(5)["events"]] == ["txn.begin"]
    assert recorder.events_dropped == 8


# ---------------------------------------------------------------------- #
# Chrome trace                                                            #
# ---------------------------------------------------------------------- #


def test_chrome_trace_document_shape(recorder):
    with span("gc.pass", recorder):
        recorder.record("gc.pass", epoch=1)
    recorder.record("txn.commit", txn_id=2, block_id=None)
    doc = json.loads(render_chrome_trace(recorder=recorder))
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


# ---------------------------------------------------------------------- #
# one journal per database                                                #
# ---------------------------------------------------------------------- #


def _db_with_rows(rows=10):
    db = Database()
    info = db.create_table("t", [ColumnSpec("id", INT64), ColumnSpec("v", UTF8)])
    with db.transaction() as txn:
        for i in range(rows):
            info.table.insert(txn, {0: i, 1: f"row-{i}"})
    return db, info


def test_export_journals_only_into_its_own_database():
    from repro.export import TableExporter

    a, info = _db_with_rows()
    b = Database()
    TableExporter(a.txn_manager, info.table, registry=a.obs).export("arrow-wire")
    assert [e.kind for e in a.recorder.events(component="export")] == [
        "export.serve"
    ]
    assert b.recorder.events(component="export") == []
    a.close()
    b.close()


def test_chrome_trace_holds_only_its_own_databases_spans():
    from repro.query.scan import TableScanner

    a = Database()
    b, info = _db_with_rows()
    scanner = TableScanner(b.txn_manager, info.table)
    assert sum(batch.num_rows for batch in scanner.batches()) == 10

    def span_names(db):
        doc = json.loads(render_chrome_trace(db.recorder))
        return {e["name"] for e in doc["traceEvents"] if e["ph"] == "X"}

    assert {"query.scan", "query.scan.hot"} <= span_names(b)
    assert not {n for n in span_names(a) if n.startswith("query.scan")}
    a.close()
    b.close()


# ---------------------------------------------------------------------- #
# one bound for every record kind                                         #
# ---------------------------------------------------------------------- #


def test_bounded_journal_under_four_threads():
    """Events, spans, finished requests and slow-transaction captures
    from 4 threads share one 64-record ring: at most 64 are held, every
    other one offered is counted as dropped, and an evicted request or
    capture is gone from every view, ``/request/<id>`` included."""
    import urllib.error
    import urllib.request

    registry = MetricRegistry()
    recorder = Recorder(capacity=64, registry=registry, slow_txn_threshold=0.0)
    db = Database(obs_registry=registry, recorder=recorder)
    offered_before = len(recorder) + recorder.events_dropped
    per_thread = 50

    def work(thread_index):
        for i in range(per_thread):
            key = thread_index * 1000 + i
            recorder.record("test.event", txn_id=key)
            with span("test.span", recorder):
                pass
            lifecycle = RequestLifecycle(key)
            lifecycle.trace_id = key
            lifecycle.finish("ok")
            lifecycle.close()
            recorder.add(lifecycle)
            recorder.note_txn_complete(key, 1.0, "committed")

    threads = [threading.Thread(target=work, args=(t,)) for t in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)

    offered = offered_before + 4 * per_thread * 4
    held = len(recorder)
    assert held <= 64
    dropped = registry.counter("obs.events_dropped_total").value
    assert dropped == offered - held == recorder.events_dropped
    assert (
        len(recorder.events()) + len(recorder.spans()) + len(recorder.requests())
        == held
    )

    keys = {t * 1000 + i for t in range(4) for i in range(per_thread)}
    kept_requests = {r.request_id for r in recorder.requests()}
    kept_captures = {entry["txn_id"] for entry in recorder.slow_transactions()}
    evicted_requests = sorted(keys - kept_requests)
    assert evicted_requests and len(keys - kept_captures) > 0
    assert len(recorder.slow_transactions()) == len(kept_captures) < len(keys)
    assert all(recorder.requests(request_id=k) == [] for k in evicted_requests)

    server = db.serve_obs()
    try:
        for key in evicted_requests[:3]:
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(f"{server.url}/request/{key}", timeout=5)
            assert err.value.code == 404
        if kept_requests:
            key = max(kept_requests)
            with urllib.request.urlopen(
                f"{server.url}/request/{key}", timeout=5
            ) as response:
                assert json.loads(response.read())["request_id"] == key
    finally:
        db.close()
