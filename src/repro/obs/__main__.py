"""``python -m repro.obs`` — live monitoring from the command line.

Two subcommands:

``serve``
    Boot a demo database with a continuous light workload and serve the
    monitoring endpoints until interrupted::

        python -m repro.obs serve --port 8642
        curl localhost:8642/metrics

``smoke``
    The CI smoke path: run a TPC-C workload with the maintenance threads
    live, scrape ``/metrics`` / ``/healthz`` / ``/varz`` / ``/events``
    over real HTTP, validate every payload parses (Prometheus line format
    and JSON), reconstruct a committed transaction's timeline, and write
    a Chrome-trace artifact.  A second phase boots a two-shard cluster,
    scrapes ``/metrics`` and ``/pprof`` while scans and cross-shard
    commits are in flight, and writes the merged Chrome trace
    (``--cluster-trace-out``).  Exits non-zero on any failed check.
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import time
import urllib.request


def _fetch(url: str, timeout: float = 10.0) -> tuple[int, str]:
    try:
        with urllib.request.urlopen(url, timeout=timeout) as response:
            return response.status, response.read().decode("utf-8")
    except urllib.error.HTTPError as exc:  # 4xx/5xx still carry a body
        return exc.code, exc.read().decode("utf-8")


def _serve(args: argparse.Namespace) -> int:
    import random

    from repro import ColumnSpec, Database, FLOAT64, INT64, UTF8

    db = Database(cold_threshold_epochs=1, slow_txn_threshold=args.slow_threshold)
    info = db.create_table(
        "demo",
        [ColumnSpec("id", INT64), ColumnSpec("name", UTF8), ColumnSpec("value", FLOAT64)],
        watch_cold=True,
    )
    db.start_background()
    server = db.serve_obs(port=args.port, host=args.host)
    print(f"monitoring at {server.url}  (endpoints: {server.url}/)")
    print("running a continuous demo workload; Ctrl-C to stop")

    stop = threading.Event()
    rng = random.Random(0)

    def workload() -> None:
        next_id = 0
        while not stop.is_set():
            try:
                with db.transaction() as txn:
                    for _ in range(10):
                        info.table.insert(
                            txn,
                            {0: next_id, 1: f"row-{next_id}", 2: rng.uniform(0, 100)},
                        )
                        next_id += 1
            except Exception:
                pass
            time.sleep(args.write_interval)

    worker = threading.Thread(target=workload, daemon=True, name="demo-writer")
    worker.start()
    try:
        while True:
            time.sleep(0.5)
    except KeyboardInterrupt:
        pass
    finally:
        stop.set()
        worker.join()
        db.close()
    return 0


def _check(ok: bool, label: str, failures: list[str]) -> None:
    print(f"  [{'ok' if ok else 'FAIL'}] {label}")
    if not ok:
        failures.append(label)


def _smoke(args: argparse.Namespace) -> int:
    from repro import Database, obs
    from repro.workloads.tpcc import TpccConfig, TpccDriver

    failures: list[str] = []
    db = Database(cold_threshold_epochs=1, slow_txn_threshold=0.0)
    driver = TpccDriver(db, TpccConfig.small())
    print("loading TPC-C ...")
    driver.setup()
    db.start_background()
    server = db.serve_obs(port=args.port)
    print(f"serving at {server.url}; running {args.txns} transactions ...")

    run_box: dict = {}

    def workload() -> None:
        run_box["run"] = driver.run(transactions_per_worker=args.txns)

    worker = threading.Thread(target=workload, name="tpcc-worker")
    worker.start()
    time.sleep(0.2)  # let some transactions land before the live scrape

    # --- live scrapes while the workload is running -------------------- #
    status, prom = _fetch(f"{server.url}/metrics")
    sample_lines = [
        line for line in prom.splitlines() if line and not line.startswith("#")
    ]
    _check(
        status == 200 and all(len(line.split()) >= 2 for line in sample_lines),
        f"/metrics parses ({len(sample_lines)} samples)",
        failures,
    )
    _check("txn_commit_total" in prom, "/metrics includes txn_commit_total", failures)

    status, raw = _fetch(f"{server.url}/healthz")
    health = json.loads(raw)
    _check(
        status == 200 and health["status"] == "ok" and health["wal"]["healthy"],
        "/healthz ok while workload runs",
        failures,
    )
    _check(
        "backlog" in health["wal"] and "last_fsync_age_seconds" in health["wal"],
        "/healthz reports WAL backlog + fsync age",
        failures,
    )

    status, raw = _fetch(f"{server.url}/varz")
    varz = json.loads(raw)
    _check(
        status == 200 and {"counters", "gauges", "histograms"} <= set(varz),
        "/varz JSON snapshot",
        failures,
    )

    status, raw = _fetch(f"{server.url}/events?component=txn&limit=50")
    events = json.loads(raw)["events"]
    _check(status == 200 and len(events) > 0, "/events returns journal entries", failures)

    worker.join()
    run = run_box.get("run")
    _check(run is not None and run.committed > 0, "workload committed transactions", failures)

    # --- post-run forensic checks -------------------------------------- #
    commits = db.recorder.events(kind="txn.commit", limit=5)
    _check(len(commits) > 0, "journal captured commits", failures)
    if commits:
        txn_id = commits[-1].txn_id
        status, raw = _fetch(f"{server.url}/timeline/{txn_id}")
        timeline = json.loads(raw)
        _check(
            status == 200
            and timeline["complete"]
            and timeline["status"] == "committed",
            f"/timeline/{txn_id} reconstructs a complete chain",
            failures,
        )
    slow = db.recorder.slow_transactions()
    _check(len(slow) > 0, "slow-transaction log captured timelines", failures)

    db.stop_background()
    trace_json = obs.render_chrome_trace(db.recorder)
    parsed = json.loads(trace_json)
    _check(len(parsed["traceEvents"]) > 0, "chrome trace has events", failures)
    if args.trace_out:
        with open(args.trace_out, "w") as fh:
            fh.write(trace_json)
        print(f"chrome trace written to {args.trace_out}")

    server.stop()
    db.close()

    _smoke_cluster(args, failures)

    if failures:
        print(f"\nsmoke FAILED: {failures}")
        return 1
    print("\nsmoke ok")
    return 0


def _smoke_cluster(args: argparse.Namespace, failures: list[str]) -> None:
    """Phase two: telemetry on a two-shard cluster.

    Scrapes the cluster's ``/metrics`` and ``/pprof`` while scans of a
    frozen shard table and cross-shard 2PC commits are both in flight,
    then validates that the merged Chrome trace holds the coordinator and
    participant 2PC spans.
    """
    from repro import obs
    from repro.cluster import ShardedDatabase
    from repro.query.scan import TableScanner
    from repro.workloads.tpcc import TpccConfig, TpccDriver
    from repro.workloads.tpcc.schema import TPCC_SHARD_KEYS
    from repro.workloads.tpcc.transactions import TpccTransactions

    print("\ncluster phase: 2 shards ...")
    config = TpccConfig(
        warehouses=2,
        districts_per_warehouse=2,
        customers_per_district=12,
        items=80,
        initial_orders_per_district=8,
        stock_per_warehouse=60,
        payment_remote_rate=1.0,
        block_size=1 << 12,
    )
    cluster = ShardedDatabase(
        n_shards=2,
        shard_keys=TPCC_SHARD_KEYS,
        cold_threshold_epochs=1,
        logging_enabled=False,
    )
    TpccDriver(cluster, config).setup()
    shard = cluster.shards[0]
    shard.freeze_table("stock")
    stock = shard.catalog.table("stock")
    cluster_server = cluster.serve_obs(port=0)

    stop = threading.Event()
    totals = {"payments": 0, "rows": 0}

    def churn() -> None:
        executor = TpccTransactions(cluster, config, seed=11)
        with obs.span("smoke.cluster"):
            while not stop.is_set():
                if executor.payment(1):
                    totals["payments"] += 1
                scanner = TableScanner(shard.txn_manager, stock)
                totals["rows"] += sum(b.num_rows for b in scanner.batches())

    worker = threading.Thread(target=churn, name="cluster-churn")
    worker.start()
    time.sleep(0.3)  # let commits and scans land before scraping

    # --- scrapes while scans + 2PC commits are in flight --------------- #
    status, prom = _fetch(f"{cluster_server.url}/metrics")
    cross = [
        line
        for line in prom.splitlines()
        if line.startswith("cluster_txn_cross_shard_total ")
        and float(line.rsplit(" ", 1)[1]) > 0
    ]
    _check(
        status == 200 and bool(cross),
        "cluster /metrics counts cross-shard commits",
        failures,
    )

    status, pprof = _fetch(f"{cluster_server.url}/pprof?seconds=1&interval=5")
    folded = [line for line in pprof.splitlines() if line]
    _check(
        status == 200
        and bool(folded)
        and all(line.rsplit(" ", 1)[1].isdigit() for line in folded),
        f"/pprof returns collapsed stacks ({len(folded)} frames)",
        failures,
    )

    stop.set()
    worker.join()
    _check(totals["payments"] > 0, "cross-shard payments committed", failures)
    _check(totals["rows"] > 0, "frozen shard scans returned rows", failures)

    trace_json = obs.render_chrome_trace(cluster.recorder)
    parsed = json.loads(trace_json)
    names = {e["name"] for e in parsed["traceEvents"] if e["ph"] == "X"}
    _check(
        "cluster.2pc" in names and "cluster.2pc.prepare" in names,
        "merged trace has coordinator + participant 2PC spans",
        failures,
    )
    if args.cluster_trace_out:
        with open(args.cluster_trace_out, "w") as fh:
            fh.write(trace_json)
        print(f"cluster chrome trace written to {args.cluster_trace_out}")

    _smoke_cluster_front_door(args, cluster, failures)

    cluster.close()


def _smoke_cluster_front_door(args, cluster, failures: list[str]) -> None:
    """Phase three: the service front door on the cluster — `/slo` must
    account for the traffic, and the tail sampler must keep (only) the
    interesting traces, one of which ships as the slow-request artifact."""
    from repro import ColumnSpec, obs
    from repro.arrowfmt.datatypes import INT64, UTF8
    from repro.obs.trace import get_tracer
    from repro.service.client import ServiceClient
    from repro.service.server import ServerThread, ServiceConfig

    print("front-door phase: /slo + tail-sampled slow-request trace ...")
    cluster.create_table(
        "usertable",
        [ColumnSpec("key", INT64), ColumnSpec("field0", UTF8)],
        shard_key="key",
    )
    cluster.create_index("usertable", "by_key", ["key"])
    info = cluster.catalog.get("usertable")
    with cluster.transaction() as txn:
        for key in range(50):
            info.table.insert(txn, {0: key, 1: f"v{key}"})

    service = ServerThread(
        cluster,
        ServiceConfig(exemplars=True, tail_sample_threshold_ms=1.0),
    ).start()
    decided = 0
    with ServiceClient(port=service.port) as client:
        for key in range(30):
            client.read("usertable", "by_key", (key % 50,))
            decided += 1
        client.scan("usertable", limit=50)  # the slow shape
        decided += 1
        errored = client.read("usertable", "nope", (1,))  # marked → kept
        decided += 1
    _check(errored.code == "bad_request", "errored request answered", failures)

    cluster_obs = cluster.serve_obs()
    status, raw = _fetch(f"{cluster_obs.url}/slo")
    slo = json.loads(raw)
    tenant = (slo.get("tenants") or {}).get("default")
    _check(
        status == 200 and tenant is not None
        and tenant["windows"]["60s"]["total"] >= decided,
        "/slo accounts for front-door traffic on the cluster",
        failures,
    )
    _check(
        tenant is not None and 0.0 <= tenant["error_budget_remaining"] <= 1.0,
        "cluster error budget stays a fraction",
        failures,
    )
    _check("slo" in cluster.health(), "db.health() carries the SLO summary", failures)

    sampler = service.server._sampler
    stats = sampler.stats()
    _check(
        stats["kept_traces"] >= 1,
        f"tail sampler kept the interesting traces ({stats['kept_traces']})",
        failures,
    )
    _check(
        stats["kept_traces"] + stats["dropped_traces"] == decided,
        f"tail sampler accounting is exact ({stats['kept_traces']} kept "
        f"+ {stats['dropped_traces']} dropped == {decided} decided)",
        failures,
    )

    # The artifact: the slowest request whose trace survived sampling,
    # rendered as a single-trace Chrome document with its waterfall track.
    kept_ids = {
        span.trace_id
        for span in get_tracer().spans()
        if span.name == "service.request" and span.trace_id is not None
    }
    slowest = max(
        (
            lifecycle
            for lifecycle in cluster.request_log.recent(limit=250)
            if lifecycle.trace_id in kept_ids
        ),
        key=lambda lifecycle: lifecycle.total_seconds,
        default=None,
    )
    _check(
        slowest is not None,
        "a kept trace resolves to a request breakdown",
        failures,
    )
    if slowest is not None:
        slow_doc = obs.render_chrome_trace(
            cluster.recorder,
            trace_id=slowest.trace_id,
            requests=[slowest],
        )
        parsed = json.loads(slow_doc)
        slices = [e for e in parsed["traceEvents"] if e["ph"] == "X"]
        names = {e["name"] for e in slices}
        _check(
            "service.request" in names and f"request:{slowest.op}" in names,
            "slow-request trace carries the root span + waterfall track",
            failures,
        )
        if args.slow_trace_out:
            with open(args.slow_trace_out, "w") as fh:
                fh.write(slow_doc)
            print(
                f"slow-request trace (request {slowest.request_id}, trace "
                f"{slowest.trace_hex}) written to {args.slow_trace_out}"
            )

    service.stop()
    cluster.stop_serving_obs()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.obs", description="live monitoring for the repro engine"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    serve = sub.add_parser("serve", help="serve monitoring endpoints over a demo DB")
    serve.add_argument("--port", type=int, default=8642)
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--write-interval", type=float, default=0.05)
    serve.add_argument(
        "--slow-threshold",
        type=float,
        default=0.05,
        help="slow-transaction capture threshold in seconds",
    )

    smoke = sub.add_parser("smoke", help="CI smoke: workload + HTTP scrape validation")
    smoke.add_argument("--port", type=int, default=0, help="0 = ephemeral")
    smoke.add_argument("--txns", type=int, default=300)
    smoke.add_argument("--trace-out", default=None, help="write Chrome trace JSON here")
    smoke.add_argument(
        "--cluster-trace-out",
        default=None,
        help="write the cluster phase's merged Chrome trace here",
    )
    smoke.add_argument(
        "--slow-trace-out",
        default=None,
        help="write one tail-sampled slow-request Chrome trace here",
    )

    args = parser.parse_args(argv)
    if args.command == "serve":
        return _serve(args)
    return _smoke(args)


if __name__ == "__main__":
    sys.exit(main())
