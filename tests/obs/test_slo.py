"""Request attribution: lifecycles, completed requests as flight-recorder
records, and SLO math."""

import pytest

from repro import obs
from repro.obs.recorder import Recorder
from repro.obs.registry import MetricRegistry
from repro.obs.slo import (
    RequestLifecycle,
    SloTracker,
    current_lifecycle,
    current_request_id,
    stamp_phase,
)


@pytest.fixture(autouse=True)
def _obs_enabled():
    was = obs.is_enabled()
    obs.configure(enabled=True)
    yield
    obs.configure(enabled=was)


class TestRequestLifecycle:
    def test_breakdown_subtracts_inner_phases_from_engine(self):
        lc = RequestLifecycle(1, op="write", tenant="t0")
        base = lc.started
        # 100 ms of engine, of which 40 ms was a backoff sleep and 20 ms an
        # fsync wait; plus 10 ms of queue wait before and 5 ms of response
        # write after.
        lc.stamp("admission.queue_wait", base, base + 0.010)
        lc.stamp("engine", base + 0.010, base + 0.110)
        lc.stamp("retry.backoff", base + 0.020, base + 0.060)
        lc.stamp("wal.fsync_wait", base + 0.070, base + 0.090)
        lc.stamp("response.write", base + 0.110, base + 0.115)
        lc.ended = base + 0.115
        b = lc.breakdown()
        assert b["retry.backoff"] == pytest.approx(0.040)
        assert b["wal.fsync_wait"] == pytest.approx(0.020)
        assert b["engine"] == pytest.approx(0.040)  # 100 - 40 - 20
        assert b["admission.queue_wait"] == pytest.approx(0.010)
        assert b["unattributed"] == pytest.approx(0.0, abs=1e-9)
        # Attributed time sums to the total: the critical-path property.
        assert sum(b.values()) == pytest.approx(lc.total_seconds)
        assert lc.dominant_phase() in ("engine", "retry.backoff")

    def test_unattributed_covers_unstamped_time(self):
        lc = RequestLifecycle(2)
        base = lc.started
        lc.stamp("engine", base, base + 0.010)
        lc.ended = base + 0.050
        b = lc.breakdown()
        assert b["unattributed"] == pytest.approx(0.040)

    def test_dominant_phase_falls_back_to_terminal_phase(self):
        lc = RequestLifecycle(3, op="read")
        lc.finish("too_busy", terminal_phase="admission")
        lc.close()
        assert lc.dominant_phase() == "admission"
        doc = lc.to_dict()
        assert doc["outcome"] == "too_busy"
        assert doc["terminal_phase"] == "admission"
        assert doc["dominant_phase"] == "admission"

    def test_to_dict_waterfall_is_relative_ms(self):
        lc = RequestLifecycle(4, op="scan", tenant="acme")
        base = lc.started
        lc.stamp("engine", base + 0.001, base + 0.003)
        lc.trace_id = 0xABC
        lc.finish("ok")
        lc.close()
        doc = lc.to_dict()
        assert doc["request_id"] == 4
        assert doc["tenant"] == "acme"
        assert doc["trace_id"] == "abc"
        (phase,) = doc["waterfall"]
        assert phase["phase"] == "engine"
        assert phase["start_ms"] == pytest.approx(1.0, abs=0.1)
        assert phase["duration_ms"] == pytest.approx(2.0, abs=0.1)
        assert "engine" in doc["breakdown_ms"]

    def test_activation_binds_thread_local(self):
        lc = RequestLifecycle(5)
        assert current_lifecycle() is None
        with lc.activate():
            assert current_lifecycle() is lc
            assert current_request_id() == 5
            with stamp_phase("wal.fsync_wait"):
                pass
        assert current_lifecycle() is None
        assert [name for name, _, _ in lc.phases] == ["wal.fsync_wait"]

    def test_stamp_phase_is_noop_without_active_request(self):
        with stamp_phase("retry.backoff"):
            pass  # must not raise, must not allocate a lifecycle
        assert current_lifecycle() is None

    def test_activation_restores_previous_lifecycle(self):
        outer, inner = RequestLifecycle(6), RequestLifecycle(7)
        with outer.activate():
            with inner.activate():
                assert current_request_id() == 7
            assert current_request_id() == 6


class TestRequestLog:
    """Completed requests are journaled in the flight recorder and
    looked up there by request id or trace id."""

    def _recorder(self, capacity=64):
        return Recorder(
            capacity=capacity, registry=MetricRegistry(), local_buffer=1
        )

    def test_lookup_by_id_and_trace(self):
        recorder = self._recorder()
        lc = RequestLifecycle(1)
        lc.trace_id = 0xDEAD
        recorder.add(lc)
        assert recorder.requests(request_id=1) == [lc]
        assert recorder.requests(trace_id=0xDEAD) == [lc]
        assert recorder.requests(request_id=99) == []
        assert recorder.events() == [] and recorder.spans() == []

    def test_eviction_keeps_bound_and_cleans_trace_index(self):
        recorder = self._recorder(capacity=2)
        for i in range(1, 5):
            lc = RequestLifecycle(i)
            lc.trace_id = i * 100
            recorder.add(lc)
        assert len(recorder) == 2 and recorder.events_dropped == 2
        assert recorder.requests(request_id=1) == []
        assert recorder.requests(trace_id=100) == []
        assert recorder.requests(trace_id=400)[0].request_id == 4
        assert [r.request_id for r in recorder.requests()] == [3, 4]


class TestSloTracker:
    def _tracker(self, **kwargs):
        clock = {"now": 1000.0}
        tracker = SloTracker(
            target_latency=0.1,
            availability=0.99,
            windows=(60.0, 600.0),
            bucket_seconds=5.0,
            clock=lambda: clock["now"],
            **kwargs,
        )
        return tracker, clock

    def test_good_bad_classification(self):
        tracker, _ = self._tracker()
        tracker.record("t", 0.05, ok=True)              # good
        tracker.record("t", 0.50, ok=True)              # slow success = bad
        tracker.record("t", 0.01, ok=False)             # error = bad
        tracker.record("t", 0.001, ok=False, shed=True)  # shed = bad
        report = tracker.report()["tenants"]["t"]
        window = report["windows"]["60s"]
        assert window["total"] == 4 and window["good"] == 1 and window["bad"] == 3
        # bad fraction 0.75 against a 1% budget → burn rate 75x.
        assert window["burn_rate"] == pytest.approx(75.0)

    def test_burn_rate_windows_roll(self):
        tracker, clock = self._tracker()
        tracker.record("t", 0.5, ok=True)  # bad, at t=1000
        clock["now"] = 1100.0              # outside 60s, inside 600s
        tracker.record("t", 0.05, ok=True)
        assert tracker.burn_rate("t", 60.0) == pytest.approx(0.0)
        assert tracker.burn_rate("t", 600.0) == pytest.approx(50.0)

    def test_error_budget_remaining(self):
        tracker, _ = self._tracker()
        for _ in range(99):
            tracker.record("t", 0.05, ok=True)
        tracker.record("t", 0.05, ok=False)
        # 1 bad out of 100 at 99% availability: budget exactly spent.
        assert tracker.error_budget_remaining("t") == pytest.approx(0.0)
        assert tracker.error_budget_remaining("unknown-tenant") == 1.0

    def test_no_traffic_burns_nothing(self):
        tracker, _ = self._tracker()
        assert tracker.burn_rate("t", 60.0) == 0.0
        summary = tracker.health_summary()
        assert summary["tenants"] == 0
        assert summary["worst_burn_rate"] == 0.0
        assert summary["breaching"] == []

    def test_health_summary_flags_breaching_tenants(self):
        tracker, _ = self._tracker()
        tracker.record("calm", 0.01, ok=True)
        for _ in range(10):
            tracker.record("noisy", 0.01, ok=False)
        summary = tracker.health_summary()
        assert summary["breaching"] == ["noisy"]
        assert summary["worst_burn_rate"] > 1.0

    def test_new_defaults_apply_to_new_tenants(self):
        tracker, _ = self._tracker()
        tracker.record("lax", 0.05, ok=True)     # inside the 0.1 s default
        tracker.configure_defaults(target_latency=0.01)
        tracker.record("picky", 0.05, ok=True)   # slow under the new default
        tracker.record("lax", 0.05, ok=True)     # lax keeps its objective
        assert tracker.burn_rate("picky", 60.0) > 0.0
        assert tracker.burn_rate("lax", 60.0) == 0.0

    def test_registry_gauges_registered_per_tenant(self):
        from repro.obs.registry import MetricRegistry

        registry = MetricRegistry()
        tracker = SloTracker(registry=registry, windows=(60.0,))
        tracker.record("t", 0.01, ok=True)
        burn = registry.get(
            "slo.burn_rate", labels={"tenant": "t", "window": "60s"}
        )
        budget = registry.get(
            "slo.error_budget_remaining", labels={"tenant": "t"}
        )
        assert burn is not None and budget is not None
        assert burn.value == pytest.approx(0.0)
        assert budget.value == pytest.approx(1.0)
