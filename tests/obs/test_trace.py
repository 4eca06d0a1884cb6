"""Trace spans: nesting, attribution, journaling into a bounded recorder,
disabled path."""

import threading
import time

import pytest

from repro import obs
from repro.obs.recorder import Recorder, get_recorder
from repro.obs.registry import MetricRegistry
from repro.obs.trace import span


@pytest.fixture(autouse=True)
def _obs_enabled():
    was = obs.is_enabled()
    obs.configure(enabled=True)
    yield
    obs.configure(enabled=was)


def _recorder(capacity=64):
    return Recorder(capacity=capacity, registry=MetricRegistry(), local_buffer=1)


def test_nested_spans_parent_child_attribution():
    recorder = _recorder()
    with span("outer", recorder):
        with span("inner", recorder):
            time.sleep(0.01)
    spans = {s.name: s for s in recorder.spans()}
    assert set(spans) == {"outer", "inner"}
    inner, outer = spans["inner"], spans["outer"]
    assert inner.parent_id == outer.span_id
    assert outer.parent_id is None
    assert outer.duration >= inner.duration
    assert outer.child_seconds == pytest.approx(inner.duration)
    # Exclusive time: outer spent almost nothing outside inner.
    assert outer.self_seconds <= outer.duration - inner.duration + 1e-6


def test_sibling_spans_accumulate_into_parent():
    recorder = _recorder()
    with span("parent", recorder):
        with span("child", recorder):
            pass
        with span("child", recorder):
            pass
    children = [s for s in recorder.spans() if s.name == "child"]
    parents = [s for s in recorder.spans() if s.name == "parent"]
    assert len(children) == 2 and len(parents) == 1
    assert parents[0].child_seconds == pytest.approx(
        sum(s.duration for s in children)
    )


def test_ring_buffer_is_bounded():
    """Spans share the recorder's ring: oldest evicted, every eviction
    counted in ``obs.events_dropped_total``."""
    registry = MetricRegistry()
    recorder = Recorder(capacity=8, registry=registry, local_buffer=1)
    for _ in range(50):
        with span("s", recorder):
            pass
    assert len(recorder) == 8
    # Oldest spans fell off: the survivors are the last 8 created.
    ids = [s.span_id for s in recorder.spans()]
    assert ids == sorted(ids) and len(ids) == 8
    assert ids[0] == ids[-1] - 7
    assert registry.counter("obs.events_dropped_total").value == 42


def test_spans_and_events_share_one_ring():
    recorder = _recorder(capacity=4)
    for i in range(3):
        recorder.record("gc.pass", epoch=i)
        with span("s", recorder):
            pass
    # Six records offered, four held, newest first to survive, in order.
    assert len(recorder) == 4
    assert recorder.events_dropped == 2
    assert [e.attrs["epoch"] for e in recorder.events()] == [1, 2]
    assert len(recorder.spans()) == 2


def test_drain_clears_buffer():
    """Spans have no buffer of their own: clearing the recorder that
    journals them empties it."""
    recorder = _recorder()
    with span("a", recorder):
        pass
    assert [s.name for s in recorder.spans()] == ["a"]
    recorder.clear()
    assert len(recorder) == 0 and recorder.spans() == []


def test_exception_still_records_span():
    recorder = _recorder()
    with pytest.raises(RuntimeError):
        with span("boom", recorder):
            raise RuntimeError("x")
    assert [s.name for s in recorder.spans()] == ["boom"]


def test_disabled_span_is_noop():
    recorder = _recorder()
    obs.configure(enabled=False)
    with span("ghost", recorder):
        pass
    with span("ghost.default"):
        pass
    assert len(recorder) == 0
    assert all(s.name != "ghost.default" for s in get_recorder().spans())


def test_module_span_respects_tracer_capacity():
    """The capacity that bounds a span is its recorder's."""
    recorder = _recorder(capacity=4)
    for _ in range(10):
        with span("s", recorder):
            pass
    assert len(recorder) == 4 and recorder.events_dropped == 6


def test_span_without_recorder_joins_its_parents():
    recorder = _recorder()
    with span("outer", recorder):
        with span("inner"):
            pass
    assert sorted(s.name for s in recorder.spans()) == ["inner", "outer"]
    with span("orphan"):
        pass
    assert "orphan" not in {s.name for s in recorder.spans()}
    assert "orphan" in {s.name for s in get_recorder().spans()}


def test_threads_get_independent_stacks():
    recorder = Recorder(capacity=64, registry=MetricRegistry())

    def worker():
        with span("w", recorder):
            pass

    with span("main", recorder):
        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    workers = [s for s in recorder.spans() if s.name == "w"]
    assert len(workers) == 4
    for s in workers:
        # Worker spans must not attach to the main thread's open span.
        assert s.parent_id is None
