"""``python -m repro.service`` — the front door from the command line.

Three subcommands:

``serve``
    Boot an engine (``--shards N`` for a sharded cluster) with a
    YCSB-style ``usertable``, start the transactional server, and run
    until SIGTERM/SIGINT — on which it *drains*: stops accepting, sheds
    new requests with ``draining``, waits out in-flight work up to
    ``--drain-timeout``, flushes the log, exits.  ``--obs-port`` also
    serves the monitoring endpoints (``/healthz`` mirrors the same
    ``db.health()`` the write gate watches).

``loadgen``
    The open-loop (constant-arrival-rate) load generator against a
    running server: offered rate is fixed, admitted-request p50/p99 and
    the shed rate are reported.  See :mod:`repro.service.loadgen`.

``smoke``
    The CI path: boot a 1-shard then a 2-shard server in-process with a
    small admission limit, preload keys, offer ~2x the admission limit,
    assert nonzero sheds + zero unhandled server exceptions + bounded
    p99, then SIGTERM-style drain mid-load and assert every acknowledged
    commit survived.  Exits non-zero on any failed check.
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import time


def _build_db(shards: int, logging_enabled: bool = True):
    from repro import ColumnSpec, Database, ShardedDatabase
    from repro.arrowfmt.datatypes import INT64, UTF8

    if shards > 1:
        db = ShardedDatabase(
            n_shards=shards,
            shard_keys={"usertable": "key"},
            logging_enabled=logging_enabled,
        )
    else:
        db = Database(logging_enabled=logging_enabled)
    db.create_table("usertable", [ColumnSpec("key", INT64), ColumnSpec("field0", UTF8)])
    db.create_index("usertable", "by_key", ["key"])
    return db


def _preload(db, keys: int) -> None:
    info = db.catalog.get("usertable")
    with db.transaction() as txn:
        for key in range(keys):
            info.table.insert(txn, {0: key, 1: f"v{key}"})


def _serve(args: argparse.Namespace) -> int:
    import signal

    from repro.service.server import ServerThread, ServiceConfig

    db = _build_db(args.shards)
    _preload(db, args.keys)
    config = ServiceConfig(
        host=args.host,
        port=args.port,
        max_inflight=args.max_inflight,
        max_queue=args.max_queue,
        max_connections=args.max_connections,
        tenant_rate=args.tenant_rate,
        drain_timeout=args.drain_timeout,
    )
    server = ServerThread(db, config).start()
    if args.obs_port is not None:
        obs = db.serve_obs(port=args.obs_port)
        print(f"monitoring at {obs.url}")
    print(
        f"serving usertable ({args.keys} keys, {args.shards} shard(s)) "
        f"on {args.host}:{server.port}"
    )
    done = threading.Event()

    def on_signal(signum, frame) -> None:
        print(f"signal {signum}: draining ...")
        done.set()

    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGINT, on_signal)
    done.wait()
    server.stop(timeout=args.drain_timeout + 5.0)
    db.close()
    print("drained clean")
    return 0


def _loadgen(args: argparse.Namespace) -> int:
    from repro.service.loadgen import LoadgenConfig, run_loadgen_sync

    result = run_loadgen_sync(
        LoadgenConfig(
            host=args.host,
            port=args.port,
            rate=args.rate,
            duration=args.duration,
            connections=args.connections,
            read_fraction=args.read_fraction,
            keys=args.keys,
            deadline_ms=args.deadline_ms,
            tenant=args.tenant,
        )
    )
    print(json.dumps(result.summary(), indent=2))
    return 0


def _check(ok: bool, label: str, failures: list[str]) -> None:
    print(f"  [{'ok' if ok else 'FAIL'}] {label}")
    if not ok:
        failures.append(label)


def _smoke_one(shards: int, failures: list[str]) -> None:
    from repro.service.client import ServiceClient
    from repro.service.loadgen import LoadgenConfig, run_loadgen_sync
    from repro.service.server import ServerThread, ServiceConfig

    print(f"\nsmoke phase: {shards} shard(s) ...")
    db = _build_db(shards)
    keys = 200
    _preload(db, keys)
    # The admission limit for this phase is the tenant rate: 200 req/s.
    # The loadgen below offers 400 req/s — 2x the limit — so roughly half
    # the offered load must come back as explicit sheds.
    config = ServiceConfig(
        max_inflight=2, max_queue=4, health_interval=0.02,
        tenant_rate=200.0, tenant_burst=40.0,
    )
    server = ServerThread(db, config).start()

    with ServiceClient(port=server.port) as client:
        pong = client.ping()
        _check(pong.ok, "ping answers", failures)
        row = client.read("usertable", "by_key", (3,))
        _check(
            row.ok and row.meta["rows"] == 1 and row.rows()[0][1] == "v3",
            "point read through the row codec",
            failures,
        )
        wrote = client.write(
            "usertable", "by_key", (3,), {"key": 3, "field0": "updated"}
        )
        _check(
            wrote.ok and wrote.meta["durable"],
            "write acknowledged only once durable",
            failures,
        )
        exported = client.export("usertable")
        _check(
            exported.ok and exported.arrow_table().num_rows == keys,
            f"Arrow export round-trips {keys} rows",
            failures,
        )

    # Offer 2x the 200 req/s admission (tenant-rate) limit.
    result = run_loadgen_sync(
        LoadgenConfig(
            port=server.port, rate=400.0, duration=1.5,
            connections=16, keys=keys, deadline_ms=250.0, seed=7,
        )
    )
    print(f"  loadgen: {result.summary()}")
    _check(result.ok > 0, "overload run still admits work", failures)
    _check(result.shed > 0, "overload run sheds explicitly", failures)
    _check(
        result.errors == 0,
        "no protocol/transport errors under overload",
        failures,
    )
    _check(
        result.p99_ms < 5000.0,
        f"admitted p99 bounded ({result.p99_ms:.1f} ms)",
        failures,
    )
    assert server.server is not None
    _check(
        server.server.unhandled_exceptions == 0,
        "zero unhandled server exceptions",
        failures,
    )

    summary = result.summary()
    _check(
        result.shed == 0 or "shed_p99_ms" in summary,
        "loadgen reports shed percentiles alongside served ones",
        failures,
    )
    traces = summary.get("percentile_traces") or {}
    print(f"  percentile traces: {traces}")
    _check(
        bool(traces.get("p99")),
        "a trace id stands behind the served p99",
        failures,
    )

    # Scrape the SLO and exemplar surface over live HTTP: the loadgen
    # just generated real traffic, so /slo must account for it and the
    # OpenMetrics exposition must carry parseable exemplars.
    import re
    import urllib.request

    obs_server = db.serve_obs()
    with urllib.request.urlopen(obs_server.url + "/slo", timeout=5) as resp:
        slo = json.loads(resp.read().decode())
    tenant = slo["tenants"].get("default")
    _check(
        tenant is not None and tenant["windows"]["60s"]["total"] > 0,
        "/slo tracks the loadgen tenant",
        failures,
    )
    _check(
        tenant is not None and 0.0 <= tenant["error_budget_remaining"] <= 1.0,
        "error budget stays a fraction",
        failures,
    )
    with urllib.request.urlopen(
        obs_server.url + "/metrics?format=openmetrics", timeout=5
    ) as resp:
        om = resp.read().decode()
    _check(
        om.rstrip().endswith("# EOF"),
        "OpenMetrics exposition terminates with # EOF",
        failures,
    )
    exemplar_re = re.compile(
        r'_bucket\{[^}]*\} \S+ # \{trace_id="[0-9a-f]+"\} \S+ \S+$'
    )
    exemplar_lines = [line for line in om.splitlines() if " # {" in line]
    _check(
        bool(exemplar_lines)
        and all(exemplar_re.search(line) for line in exemplar_lines),
        f"exemplar lines parse ({len(exemplar_lines)} found)",
        failures,
    )

    # SIGTERM-style drain under live load: acked commits must survive.
    acked: list[int] = []
    stop = threading.Event()

    def writer() -> None:
        with ServiceClient(port=server.port) as client:
            key = 10_000
            while not stop.is_set():
                try:
                    response = client.write(
                        "usertable", "by_key", (key,),
                        {"key": key, "field0": f"drain-{key}"},
                    )
                except Exception:
                    return  # connection torn by the drain: expected
                if response.ok:
                    acked.append(key)
                elif response.code == "draining":
                    return
                key += 1

    thread = threading.Thread(target=writer, name="drain-writer")
    thread.start()
    time.sleep(0.3)
    server.stop(timeout=15.0)
    stop.set()
    thread.join(timeout=5.0)
    _check(len(acked) > 0, f"writes acked before drain ({len(acked)})", failures)
    info = db.catalog.get("usertable")
    with db.transaction() as txn:
        index = db.catalog.index("usertable", "by_key")
        missing = [
            key for key in acked if not index.lookup(txn, (key,), [0])
        ]
    _check(
        not missing,
        f"zero acknowledged commits lost across drain ({len(acked)} acked)",
        failures,
    )
    db.close()


def _smoke(args: argparse.Namespace) -> int:
    failures: list[str] = []
    _smoke_one(1, failures)
    _smoke_one(2, failures)
    if failures:
        print(f"\nsmoke FAILED: {failures}")
        return 1
    print("\nsmoke ok")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.service", description="the transactional front door"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    serve = sub.add_parser("serve", help="serve usertable until SIGTERM")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8650)
    serve.add_argument("--shards", type=int, default=1)
    serve.add_argument("--keys", type=int, default=1000)
    serve.add_argument("--max-inflight", type=int, default=8)
    serve.add_argument("--max-queue", type=int, default=16)
    serve.add_argument("--max-connections", type=int, default=256)
    serve.add_argument("--tenant-rate", type=float, default=None)
    serve.add_argument("--drain-timeout", type=float, default=10.0)
    serve.add_argument("--obs-port", type=int, default=None)

    loadgen = sub.add_parser("loadgen", help="open-loop load against a server")
    loadgen.add_argument("--host", default="127.0.0.1")
    loadgen.add_argument("--port", type=int, default=8650)
    loadgen.add_argument("--rate", type=float, default=200.0)
    loadgen.add_argument("--duration", type=float, default=2.0)
    loadgen.add_argument("--connections", type=int, default=16)
    loadgen.add_argument("--read-fraction", type=float, default=0.5)
    loadgen.add_argument("--keys", type=int, default=1000)
    loadgen.add_argument("--deadline-ms", type=float, default=1000.0)
    loadgen.add_argument("--tenant", default="default")

    sub.add_parser("smoke", help="CI smoke: overload + drain on 1 and 2 shards")

    args = parser.parse_args(argv)
    if args.command == "serve":
        return _serve(args)
    if args.command == "loadgen":
        return _loadgen(args)
    return _smoke(args)


if __name__ == "__main__":
    sys.exit(main())
