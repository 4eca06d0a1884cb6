"""Ablation: cost of request-scoped tail-latency attribution.

The attribution stack added for the SLO work rides every request: a
phase-stamped :class:`~repro.obs.slo.RequestLifecycle` journaled in the
flight recorder, histogram exemplars, and per-tenant SLO accounting.  Like the
flight recorder before it, the design bet is that all of it rides along
for (nearly) free — this benchmark enforces the same <5% gate on two
paths:

* **engine path** — a TPC-C-lite loop run bare vs. under an activated
  lifecycle: every deep ``stamp_phase`` site (retry backoff, fsync waits)
  flips from the null fast path to live stamping;
* **service path** — closed-loop reads through the real socket server
  with the full stack on (exemplars, SLO tracking) vs. the lean
  baseline, with observability disabled entirely as context.

A microbench pins the per-call cost of ``stamp_phase`` itself in both
states, because that is the branch every engine layer now carries.
"""

from __future__ import annotations

import time

import pytest

from repro import ColumnSpec, Database, obs
from repro.arrowfmt.datatypes import INT64, UTF8
from repro.bench.reporting import format_table
from repro.obs.slo import RequestLifecycle, stamp_phase
from repro.service import ServiceClient
from repro.service.server import ServerThread, ServiceConfig
from repro.workloads.tpcc import TpccConfig, TpccDriver

from conftest import publish, scaled

TXNS = scaled(400, minimum=150)
REQUESTS = scaled(400, minimum=150)
TRIALS = 5
GATE = 0.05


@pytest.fixture(autouse=True)
def _restore_obs_state():
    was = obs.is_enabled()
    yield
    obs.configure(enabled=was, exemplars=False)


# --------------------------------------------------------------------- #
# engine path: TPC-C under an activated lifecycle                        #
# --------------------------------------------------------------------- #


def _engine_trial(active: bool) -> tuple[float, int]:
    obs.configure(enabled=True)
    db = Database(cold_threshold_epochs=1)
    driver = TpccDriver(db, TpccConfig.small())
    driver.setup()
    lifecycle = RequestLifecycle(1, op="bench")
    began = time.perf_counter()
    if active:
        with lifecycle.activate():
            run = driver.run(transactions_per_worker=TXNS)
    else:
        run = driver.run(transactions_per_worker=TXNS)
    elapsed = time.perf_counter() - began
    return elapsed, run.committed


# --------------------------------------------------------------------- #
# service path: closed-loop reads over a real socket                     #
# --------------------------------------------------------------------- #


def _service_trial(config: str) -> tuple[float, int]:
    """One closed-loop read run: ``disabled`` (obs off entirely, context
    only), ``lean`` (obs on, no exemplars — the established baseline),
    ``full`` (exemplars on)."""
    full = config == "full"
    obs.configure(enabled=config != "disabled")
    columns = [ColumnSpec("key", INT64), ColumnSpec("field0", UTF8)]
    db = Database()
    db.create_table("usertable", columns)
    db.create_index("usertable", "by_key", ["key"])
    info = db.catalog.get("usertable")
    keys = 100
    with db.transaction() as txn:
        for key in range(keys):
            info.table.insert(txn, {0: key, 1: f"v{key}"})
    server = ServerThread(db, ServiceConfig(exemplars=full)).start()
    served = 0
    try:
        with ServiceClient(port=server.port) as client:
            began = time.perf_counter()
            for i in range(REQUESTS):
                if client.read("usertable", "by_key", (i % keys,)).ok:
                    served += 1
            elapsed = time.perf_counter() - began
    finally:
        server.stop()
        db.close()
    return elapsed, served


@pytest.fixture(scope="module")
def measurements():
    _engine_trial(True)  # warm caches/allocator before measuring anything
    trials = {
        "engine bare": lambda: _engine_trial(False),
        "engine attributed": lambda: _engine_trial(True),
        "service disabled": lambda: _service_trial("disabled"),
        "service lean": lambda: _service_trial("lean"),
        "service full": lambda: _service_trial("full"),
    }
    best = {name: (float("inf"), 0) for name in trials}
    for _ in range(TRIALS):
        # Interleaved so every configuration sees the same machine noise.
        for name, trial in trials.items():
            result = trial()
            if result[0] < best[name][0]:
                best[name] = result
    return best


def test_attribution_overhead_under_five_percent(benchmark, measurements):
    def run():
        return {
            name: count / elapsed
            for name, (elapsed, count) in measurements.items()
        }

    rates = benchmark.pedantic(run, rounds=1, iterations=1)
    engine_overhead = (
        measurements["engine attributed"][0] / measurements["engine bare"][0] - 1.0
    )
    service_overhead = (
        measurements["service full"][0] / measurements["service lean"][0] - 1.0
    )
    obs_context = (
        measurements["service lean"][0] / measurements["service disabled"][0] - 1.0
    )
    publish(
        "ablation_slo_attribution",
        format_table(
            f"Ablation — request-attribution overhead (TPC-C {TXNS} txns, "
            f"service {REQUESTS} reads, best of {TRIALS})",
            ["configuration", "ops/s", "overhead"],
            [
                ("engine, no lifecycle", f"{rates['engine bare']:,.0f}", "—"),
                (
                    "engine, lifecycle active",
                    f"{rates['engine attributed']:,.0f}",
                    f"{engine_overhead * 100:+.1f}%",
                ),
                ("service, obs on (baseline)", f"{rates['service lean']:,.0f}", "—"),
                (
                    "service, + exemplars",
                    f"{rates['service full']:,.0f}",
                    f"{service_overhead * 100:+.1f}%",
                ),
                (
                    "service, obs disabled (context)",
                    f"{rates['service disabled']:,.0f}",
                    f"{-obs_context * 100 / (1 + obs_context):+.1f}% vs baseline",
                ),
            ],
        ),
    )
    assert measurements["engine bare"][1] == measurements["engine attributed"][1] > 0
    assert (
        measurements["service lean"][1]
        == measurements["service full"][1]
        == measurements["service disabled"][1]
        > 0
    )
    assert engine_overhead < GATE, (
        f"activated lifecycle cost {engine_overhead * 100:.1f}% on the engine "
        "path; stamp_phase has regressed"
    )
    assert service_overhead < GATE, (
        f"full attribution cost {service_overhead * 100:.1f}% on the service "
        "path; the per-request stack has regressed"
    )


def _per_call_cost(fn, calls: int = 100_000) -> float:
    began = time.perf_counter()
    for _ in range(calls):
        fn()
    return (time.perf_counter() - began) / calls


def test_stamp_phase_call_cost(benchmark):
    """The branch every engine layer carries must stay sub-microsecond
    when no request is active (the overwhelmingly common case)."""

    def inactive():
        with stamp_phase("wal.fsync_wait"):
            pass

    lifecycle = RequestLifecycle(1, op="bench")

    def active():
        with stamp_phase("wal.fsync_wait"):
            pass

    idle_cost = _per_call_cost(inactive)
    with lifecycle.activate():
        live_cost = _per_call_cost(active)
    benchmark.pedantic(inactive, rounds=1, iterations=1000)
    publish(
        "ablation_slo_stamp_cost",
        format_table(
            "stamp_phase per-call cost",
            ["state", "ns/call"],
            [
                ("no active request", f"{idle_cost * 1e9:,.0f}"),
                ("request active", f"{live_cost * 1e9:,.0f}"),
            ],
        ),
    )
    assert idle_cost < 2e-6, (
        f"inactive stamp_phase costs {idle_cost * 1e9:.0f}ns/call; the "
        "fast path must stay a thread-local load and a branch"
    )
