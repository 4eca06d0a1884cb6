"""Ablation: cost of the repro.obs observability subsystem.

A TPC-C-lite transaction loop is timed with metrics/span recording enabled
and disabled.  The sharded counters and class-based spans are designed so
the enabled path stays within a few percent of disabled, and the disabled
path degenerates to one attribute check per instrumentation site — this
benchmark enforces both properties:

* enabled throughput ≥ 95% of disabled throughput (best-of-N, trials
  interleaved so both configurations see the same machine noise);
* the disabled fast path of every primitive (counter inc, histogram
  observe, span enter/exit) costs well under a microsecond per call.
"""

from __future__ import annotations

import time

import pytest

from repro import Database, obs
from repro.bench.harness import RegistryDelta
from repro.bench.reporting import format_table
from repro.obs.recorder import Recorder
from repro.obs.registry import Counter, Histogram
from repro.obs.trace import span
from repro.workloads.tpcc import TpccConfig, TpccDriver

from conftest import publish, publish_deltas, scaled

TXNS = scaled(500, minimum=200)
TRIALS = 5


@pytest.fixture(autouse=True)
def _restore_obs_state():
    was = obs.is_enabled()
    yield
    obs.configure(enabled=was)


def _one_trial(enabled: bool) -> tuple[float, int, dict]:
    """One timed TPC-C run; returns (seconds, committed, metric deltas)."""
    obs.configure(enabled=enabled)
    db = Database(cold_threshold_epochs=1, logging_enabled=True)
    driver = TpccDriver(db, TpccConfig.small())
    driver.setup()
    with RegistryDelta(db.obs) as capture:
        began = time.perf_counter()
        run = driver.run(transactions_per_worker=TXNS)
        elapsed = time.perf_counter() - began
    return elapsed, run.committed, capture.delta


@pytest.fixture(scope="module")
def measurements():
    _one_trial(True)  # warm caches/allocator before measuring anything
    best = {True: (float("inf"), 0, {}), False: (float("inf"), 0, {})}
    for _ in range(TRIALS):
        for enabled in (False, True):
            trial = _one_trial(enabled)
            if trial[0] < best[enabled][0]:
                best[enabled] = trial
    return best


def _per_call_cost(fn, calls: int = 200_000) -> float:
    began = time.perf_counter()
    for _ in range(calls):
        fn()
    return (time.perf_counter() - began) / calls


def test_enabled_overhead_under_five_percent(benchmark, measurements):
    def run():
        t_enabled, committed_on, _ = measurements[True]
        t_disabled, committed_off, _ = measurements[False]
        return {
            "enabled_txn_s": committed_on / t_enabled,
            "disabled_txn_s": committed_off / t_disabled,
            "overhead": t_enabled / t_disabled - 1.0,
        }

    stats = benchmark.pedantic(run, rounds=1, iterations=1)
    publish(
        "ablation_obs_overhead",
        format_table(
            f"Ablation — obs subsystem overhead (TPC-C-lite, {TXNS} txns, "
            f"best of {TRIALS})",
            ["configuration", "txn/s", "overhead"],
            [
                ("obs disabled", f"{stats['disabled_txn_s']:,.0f}", "—"),
                (
                    "obs enabled",
                    f"{stats['enabled_txn_s']:,.0f}",
                    f"{stats['overhead'] * 100:+.1f}%",
                ),
            ],
        ),
    )
    publish_deltas(
        "ablation_obs_overhead_deltas",
        measurements[True][2],
        "Ablation — engine work during the enabled run (from obs registry)",
    )
    assert measurements[True][1] == measurements[False][1] > 0
    assert stats["overhead"] < 0.05, (
        f"obs-enabled run was {stats['overhead'] * 100:.1f}% slower; "
        "the registry hot path has regressed"
    )


def test_disabled_path_is_near_noop(benchmark):
    obs.configure(enabled=False)
    counter = Counter("bench.noop_total")
    hist = Histogram("bench.noop_seconds")
    recorder = Recorder(capacity=8)

    costs = benchmark.pedantic(
        lambda: {
            "counter.inc": _per_call_cost(counter.inc),
            "histogram.observe": _per_call_cost(lambda: hist.observe(0.1)),
            "span": _per_call_cost(
                lambda: span("bench.noop", recorder).__enter__()
            ),
        },
        rounds=1,
        iterations=1,
    )
    publish(
        "ablation_obs_disabled_path",
        format_table(
            "Ablation — disabled-path cost per instrumentation call",
            ["primitive", "ns/call"],
            [(name, f"{cost * 1e9:,.0f}") for name, cost in costs.items()],
        ),
    )
    assert counter.value == 0
    assert hist.snapshot().count == 0
    assert len(recorder) == 0
    for name, cost in costs.items():
        assert cost < 5e-7, f"disabled {name} costs {cost * 1e9:.0f} ns/call"
