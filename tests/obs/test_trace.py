"""Trace spans: nesting, attribution, bounded buffering, disabled path."""

import time

import pytest

from repro import obs
from repro.obs.trace import Tracer, span


@pytest.fixture(autouse=True)
def _obs_enabled():
    was = obs.is_enabled()
    obs.configure(enabled=True)
    yield
    obs.configure(enabled=was)


def test_nested_spans_parent_child_attribution():
    tracer = Tracer(capacity=16)
    with tracer.span("outer"):
        with tracer.span("inner"):
            time.sleep(0.01)
    spans = {s.name: s for s in tracer.spans()}
    assert set(spans) == {"outer", "inner"}
    inner, outer = spans["inner"], spans["outer"]
    assert inner.parent_id == outer.span_id
    assert outer.parent_id is None
    assert outer.duration >= inner.duration
    assert outer.child_seconds == pytest.approx(inner.duration)
    # Exclusive time: outer spent almost nothing outside inner.
    assert outer.self_seconds <= outer.duration - inner.duration + 1e-6


def test_sibling_spans_accumulate_into_parent():
    tracer = Tracer(capacity=16)
    with tracer.span("parent"):
        with tracer.span("child"):
            pass
        with tracer.span("child"):
            pass
    summary = tracer.summarize()
    assert summary["child"].count == 2
    assert summary["parent"].count == 1
    parent = [s for s in tracer.spans() if s.name == "parent"][0]
    assert parent.child_seconds == pytest.approx(summary["child"].total_seconds)


def test_ring_buffer_is_bounded():
    tracer = Tracer(capacity=8)
    for i in range(50):
        with tracer.span("s"):
            pass
    assert len(tracer) == 8
    # Oldest spans fell off: the survivors are the last 8 created.
    ids = [s.span_id for s in tracer.spans()]
    assert ids == sorted(ids) and len(ids) == 8
    assert min(ids) > 40


def test_drain_clears_buffer():
    tracer = Tracer(capacity=8)
    with tracer.span("a"):
        pass
    drained = tracer.drain()
    assert [s.name for s in drained] == ["a"]
    assert len(tracer) == 0


def test_exception_still_records_span():
    tracer = Tracer(capacity=8)
    with pytest.raises(RuntimeError):
        with tracer.span("boom"):
            raise RuntimeError("x")
    assert [s.name for s in tracer.spans()] == ["boom"]


def test_disabled_span_is_noop():
    tracer = Tracer(capacity=8)
    obs.configure(enabled=False)
    with tracer.span("ghost"):
        pass
    with span("ghost.default"):
        pass
    assert len(tracer) == 0
    assert all(s.name != "ghost.default" for s in obs.get_tracer().spans())


def test_module_span_respects_tracer_capacity():
    tracer = Tracer(capacity=4)
    for _ in range(10):
        with span("s", tracer=tracer):
            pass
    assert len(tracer) == 4


def test_threads_get_independent_stacks():
    import threading

    tracer = Tracer(capacity=64)
    def worker():
        with tracer.span("w"):
            pass
    with tracer.span("main"):
        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    for s in tracer.spans():
        if s.name == "w":
            # Worker spans must not attach to the main thread's open span.
            assert s.parent_id is None
