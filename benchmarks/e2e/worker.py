"""One workload, once, in this process; prints its measurements as JSON.

``run.py`` starts this file in a fresh interpreter for every repeat, so
no run inherits another's heap, caches or block ids.  Phases: set-up
(load, index build, initial freeze, one untimed warm-up round, then
``gc.collect(); gc.freeze()``) → rounds of OLTP with an export trial and
a scan trial after each → recovery of the whole log into a fresh database
→ verification.

Machine speed.  This sandbox's speed drifts by 5-30 % over minutes (a
fixed pure-Python loop shows it, with or without ASLR), which is more
than any bound a regression gate could use.  So a fixed spin loop runs
before set-up, after it, after every round and after recovery, and every
timing is scaled by ``median spin time / SPIN_REFERENCE_SECONDS``: the
end-to-end timings are *at reference machine speed*.  Measured on 48
workers, this halves the run-to-run spread (README, "Repeatability").
The raw values and the factor are in the worker's JSON next to them.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import pathlib
import resource
import statistics
import sys
from time import perf_counter

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

#: What ``spin()`` takes on the reference box in a quiet minute.  Only a
#: unit: changing it rescales every timing of every run alike.
SPIN_REFERENCE_SECONDS = 0.0122

#: End-to-end metrics that are times (scaled down when the machine is
#: slow) and rates (scaled up); ok_frac and peak_rss_mb are not timings.
TIMES = ("setup_s", "txn_p50_ms", "txn_p90_ms")
RATES = ("txn_per_s", "export_mb_per_s", "scan_rows_per_s", "recovery_mb_per_s")


def spin() -> float:
    """Seconds one fixed pure-Python loop takes right now."""
    start = perf_counter()
    acc = 0
    for i in range(200_000):
        acc += i * i % 7
    return perf_counter() - start


def percentile(ordered: list[float], q: float) -> float:
    return ordered[min(len(ordered) - 1, int(len(ordered) * q))]


def total_rate(trials: list[tuple[float, float]]) -> float:
    """Amount per second over all trials together (a table's hot and
    frozen states alternate between trials; their median would flip)."""
    return sum(amount for amount, _ in trials) / sum(seconds for _, seconds in trials)


def run(name: str, seed: int, seconds: float, scale: float, trace_path: str | None) -> dict:
    traced = trace_path is not None
    tracer = tracing.Tracer() if traced else tracing.NullTracer()
    spin()  # warm
    spins = [spin()]

    # ---- set-up ------------------------------------------------------- #
    setup_began = perf_counter()
    workload = workloads.WORKLOADS[name](seed, scale, tracer)
    try:
        rounds = workloads.rounds_for(seconds)
        workload.plan(rounds)
        workload.load()
        if traced:
            tracer.install()
        workload.oltp_round()
        workload.export_trial()
        workload.scan_trial()
        gc.collect()
        gc.freeze()
        setup_seconds = perf_counter() - setup_began
        spins.append(spin())

        # ---- measured rounds ------------------------------------------ #
        db = workload.db
        warm = workload.start_measuring()
        before = db.metrics()
        retries_before = db.obs.counter("workload.txn_retries_total").value
        aborts_before = db.obs.counter("txn.abort_total").value
        first_span = len(tracer.spans)
        filtered = []
        for _ in range(rounds):
            workload.oltp_round()
            exported = workload.export_trial()
            scanned = workload.scan_trial()
            workload.check(
                f"export {exported} == scan {scanned}",
                exported[0] == scanned[0]
                and math.isclose(exported[1], scanned[1], rel_tol=1e-9, abs_tol=1e-9),
            )
            if traced:
                filtered.append(workload.filtered_scan())
            spins.append(spin())
        after = db.metrics()
        if traced and name == "service_closedloop":
            workload.ping(200)

        # ---- recovery and verification -------------------------------- #
        log_bytes, recover_seconds = workload.recover()
        spins.append(spin())
        workload.verify()
        span_totals = tracer.totals(first_span)
        if traced:
            tracer.unpatch_all()
            ipc_rates = ipc_round_trip(workload)
    finally:
        workload.close()

    latencies = sorted(workload.latencies[warm["transactions"]:])
    oltp_seconds = workload.oltp_seconds - warm["oltp_seconds"]
    committed = workload.committed - warm["committed"]
    raw = {
        "setup_s": setup_seconds,
        "txn_per_s": committed / oltp_seconds,
        "txn_p50_ms": percentile(latencies, 0.50) * 1e3,
        "txn_p90_ms": percentile(latencies, 0.90) * 1e3,
        "ok_frac": (workload.attempted - workload.failed) / workload.attempted,
        "export_mb_per_s": total_rate(workload.exports),
        "scan_rows_per_s": total_rate(workload.scans),
        "recovery_mb_per_s": log_bytes / 1e6 / recover_seconds,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    slowdown = statistics.median(spins) / SPIN_REFERENCE_SECONDS
    metrics = dict(raw)
    for metric in TIMES:
        metrics[metric] = raw[metric] / slowdown
    for metric in RATES:
        metrics[metric] = raw[metric] * slowdown
    result = {
        "workload": name,
        "seed": seed,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "failures": workload.failures[:10],
        "metrics": metrics,
        "raw": raw,
        "machine_slowdown": slowdown,
        "samples": {
            "transactions": len(latencies),
            "oltp_seconds": oltp_seconds,
            "export_trials": len(workload.exports),
            "export_seconds": sum(s for _, s in workload.exports),
            "scan_trials": len(workload.scans),
            "scan_seconds": sum(s for _, s in workload.scans),
            "recovery_seconds": recover_seconds,
            "log_bytes": log_bytes,
        },
    }
    if not traced:
        return result

    # ---- per-layer metrics (traced run only; raw, not speed-scaled) --- #
    def inclusive(span: str) -> float:
        return span_totals.get(span, (0, 0.0, 0.0))[1]

    def self_us(span: str) -> float:
        count, _, own = span_totals.get(span, (0, 0.0, 0.0))
        return own / count * 1e6 if count else 0.0

    def mean_ms(span: str) -> float:
        count, total, _ = span_totals.get(span, (0, 0.0, 0.0))
        return total / count * 1e3 if count else 0.0

    def delta(key: str) -> float:
        return after[key] - before[key]

    def rows_per_second(split: list) -> float:
        return split[0] / split[1] if split[1] else 0.0

    tables = [db.catalog.table(n) for n in db.catalog.table_names()]
    stored_bytes = sum(len(t.blocks) * t.layout.block_size for t in tables)
    result["layers"] = {
        "txn.begin_us": self_us("txn.begin"),
        "txn.commit_us": self_us("txn.commit"),
        "txn.aborts": db.obs.counter("txn.abort_total").value - aborts_before,
        "txn.retries": db.obs.counter("workload.txn_retries_total").value - retries_before,
        "storage.insert_us": self_us("storage.insert"),
        "storage.update_us": self_us("storage.update"),
        "storage.select_us": self_us("storage.select"),
        "storage.delete_us": self_us("storage.delete"),
        "storage.blocks_live": after["blocks_live"],
        "storage.bytes_per_row": stored_bytes / max(1, after["live_tuples"]),
        "index.lookup_us": self_us("index.lookup"),
        "index.range_scan_us": self_us("index.range_scan"),
        "index.maintain_us": self_us("index.maintain"),
        "index.maintenance_ops": delta("index_maintenance_ops"),
        "wal.flush_s": inclusive("wal.flush"),
        "wal.flushes": delta("wal_flushes"),
        "wal.bytes_per_txn": delta("wal_bytes_written") / max(1, committed),
        "wal.recover_s": recover_seconds,
        "gc_engine.busy_s": inclusive("gc_engine.run"),
        "gc_engine.passes": delta("gc_passes"),
        "gc_engine.records_unlinked": delta("gc_records_unlinked"),
        "transform.compact_s": inclusive("transform.compact"),
        "transform.freeze_s": inclusive("transform.freeze"),
        "transform.busy_frac": (
            inclusive("transform.compact") + inclusive("transform.freeze")
        ) / oltp_seconds,
        "transform.blocks_frozen": delta("transform_blocks_frozen"),
        "transform.tuples_moved": delta("transform_tuples_moved"),
        "transform.freezes_preempted": delta("transform_freezes_preempted"),
        "transform.frozen_frac": statistics.mean(workload.frozen_fractions),
        "export.serialize_s": workload.export_serialize_seconds,
        "export.client_s": workload.export_client_seconds,
        "export.frozen_blocks": workload.export_frozen_blocks,
        "export.materialized_blocks": workload.export_materialized_blocks,
        "arrowfmt.ipc_write_mb_per_s": ipc_rates[0],
        "arrowfmt.ipc_read_mb_per_s": ipc_rates[1],
        "query.scan_frozen_rows_per_s": rows_per_second(workload.scan_frozen),
        "query.scan_hot_rows_per_s": rows_per_second(workload.scan_hot),
        "query.filtered_scan_ms": statistics.median(s for s, _ in filtered) * 1e3,
        "query.blocks_pruned": sum(p for _, p in filtered),
        "service.ping_ms": mean_ms("service.ping"),
        "service.read_ms": mean_ms("service.read"),
        "service.write_ms": mean_ms("service.write"),
        "service.scan_ms": mean_ms("service.scan"),
        "service.export_ms": mean_ms("service.export"),
        "service.shed": workload.sheds,
        "service.errors": workload.errors,
        "workloads.driver_self_s": span_totals.get("workloads.txn", (0, 0.0, 0.0))[2],
        "workloads.maintenance_s": workload.maintenance_seconds - warm["maintenance_seconds"],
        "workloads.load_rows_per_s": workload.load_rows / workload.load_seconds,
        "workloads.txn_p99_ms": percentile(latencies, 0.99) * 1e3,
        "machine.calib_score": 1.0 / statistics.median(spins),
    }
    result["spans"] = len(tracer.spans)
    result["trace_events"] = tracer.write_chrome_trace(trace_path)
    return result


def ipc_round_trip(workload) -> tuple[float, float]:
    """(write, read) MB/s of the Arrow IPC codec on a pre-built table:
    the workload's table as a client received it, storage bypassed."""
    from repro.arrowfmt import ipc
    from repro.export import flight

    stream = flight.export_stream(workload.db.txn_manager, workload.table)
    table = flight.client_receive(stream.payload)
    written = read = 0.0
    nbytes = 0
    while written < workloads.TRIAL_MIN_SECONDS:
        start = perf_counter()
        raw = ipc.write_table(table)
        middle = perf_counter()
        ipc.read_table(raw)
        read += perf_counter() - middle
        written += middle - start
        nbytes += len(raw)
    return nbytes / 1e6 / written, nbytes / 1e6 / read


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args()
    result = run(args.workload, args.seed, args.seconds, args.scale, args.trace_out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
