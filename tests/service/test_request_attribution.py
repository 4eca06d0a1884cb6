"""Forensic request attribution end to end.

The acceptance story of the tail-latency work: a slow disk is injected
under live service load, and the observability surface must *name the
culprit* without any code changes — the p99 latency bucket carries an
exemplar trace id, the trace id resolves to a request breakdown, and the
breakdown says the time went to ``wal.fsync_wait``.  A control run on
the same slow disk with a synchronous log, where commit fsyncs itself,
attributes the same requests to ``engine``, and a shed request is
attributed to the ``admission`` terminal phase without ever holding a
slot.
"""

import json
import time
import urllib.error
import urllib.request

import pytest

from repro import ColumnSpec, Database, obs
from repro.arrowfmt.datatypes import INT64, UTF8
from repro.fault import FaultyDevice
from repro.service import ServiceClient
from repro.service.server import ServerThread, ServiceConfig

COLUMNS = [ColumnSpec("key", INT64), ColumnSpec("field0", UTF8)]


@pytest.fixture(autouse=True)
def _obs_enabled():
    was = obs.is_enabled()
    obs.configure(enabled=True)
    yield
    obs.configure(enabled=was)


def make_db(**db_kwargs):
    db = Database(**db_kwargs)
    db.create_table("usertable", COLUMNS)
    db.create_index("usertable", "by_key", ["key"])
    info = db.catalog.get("usertable")
    with db.transaction() as txn:
        for key in range(20):
            info.table.insert(txn, {0: key, 1: f"v{key}"})
    return db


def wait_until(predicate, timeout=5.0, interval=0.005):
    """Completion bookkeeping runs *after* the response bytes ship, so a
    client that just got its answer may be microseconds ahead of the log."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


def fetch(url):
    try:
        with urllib.request.urlopen(url, timeout=5.0) as response:
            return response.status, response.read().decode()
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read().decode()


def p99_bucket_index(snapshot):
    """Index of the bucket holding the 99th percentile observation."""
    target = 0.99 * snapshot.count
    for index, (_, cumulative) in enumerate(snapshot.cumulative()):
        if cumulative >= target:
            return index
    return len(snapshot.bounds)


class TestForensicAttribution:
    def test_fsync_stall_shows_up_as_wal_fsync_wait(self):
        """Slow disk under load → p99 exemplar → /request/trace:<id> →
        a breakdown dominated by ``wal.fsync_wait``."""
        device = FaultyDevice(fsync_stall=0.04)
        db = make_db(log_device=device)
        # Group commit in the background is what turns commit durability
        # into a *wait* on the request thread (and the stall into pure
        # critical-path fsync latency).
        db.start_background(log_interval=0.002)
        server = ServerThread(db, ServiceConfig(exemplars=True)).start()
        obs_server = db.serve_obs()
        try:
            with ServiceClient(port=server.port) as client:
                responses = [
                    client.write(
                        "usertable", "by_key", (k,), {"key": k, "field0": "slow"}
                    )
                    for k in range(6)
                ]
            assert all(r.ok for r in responses)
            assert all(r.trace_id for r in responses)
            assert wait_until(
                lambda: db.recorder.requests(
                    trace_id=int(responses[-1].trace_id, 16)
                )
            )

            # The latency histogram's p99 bucket names an offender.
            latency = db.obs.get("service.request_seconds")
            p99 = p99_bucket_index(latency.snapshot())
            exemplars = {
                index: ex
                for index, ex in latency.exemplars().items()
                if index >= p99
            }
            assert exemplars, "p99 bucket carries no exemplar"
            trace_hex = exemplars[max(exemplars)].trace_id
            assert trace_hex in {r.trace_id for r in responses}

            # The exemplar's trace id resolves to a breakdown, in-process
            # and over HTTP alike, and the breakdown blames the disk.
            found = db.recorder.requests(trace_id=int(trace_hex, 16))
            assert found
            lifecycle = found[-1]
            breakdown = lifecycle.breakdown()
            assert breakdown["wal.fsync_wait"] >= 0.01
            assert breakdown["wal.fsync_wait"] > breakdown.get("engine", 0.0)
            assert lifecycle.dominant_phase() == "wal.fsync_wait"

            status, body = fetch(f"{obs_server.url}/request/trace:{trace_hex}")
            assert status == 200
            payload = json.loads(body)
            assert payload["dominant_phase"] == "wal.fsync_wait"
            assert payload["trace_id"] == trace_hex
            phases = {p["phase"] for p in payload["waterfall"]}
            assert {"slot_wait", "engine", "wal.fsync_wait"} <= phases

            # And the OpenMetrics exposition carries the same trace id as
            # a spec-shaped exemplar on a histogram bucket.
            status, om = fetch(f"{obs_server.url}/metrics?format=openmetrics")
            assert status == 200
            assert f'# {{trace_id="{trace_hex}"}}' in om
        finally:
            server.stop()
            db.close()

    def test_healthy_control_attributes_to_engine(self):
        """The same slow disk under a synchronous WAL: commit fsyncs on
        the request thread, inside the ``engine`` window, so the 40 ms
        stall is charged to ``engine`` and outweighs any slot wait —
        the breakdown blames ``wal.fsync_wait`` only when commit *waits*
        on group commit."""
        db = make_db(log_device=FaultyDevice(fsync_stall=0.04))
        server = ServerThread(db, ServiceConfig(exemplars=True)).start()
        try:
            with ServiceClient(port=server.port) as client:
                response = client.write(
                    "usertable", "by_key", (3,), {"key": 3, "field0": "fine"}
                )
            assert response.ok and response.trace_id
            trace_id = int(response.trace_id, 16)
            assert wait_until(lambda: db.recorder.requests(trace_id=trace_id))
            lifecycle = db.recorder.requests(trace_id=trace_id)[-1]
            assert lifecycle.request_id == response.request_id
            assert lifecycle.dominant_phase() == "engine"
            # A synchronous commit is durable before wait_durable runs, so
            # no fsync wait ever lands on the critical path.
            assert lifecycle.breakdown().get("wal.fsync_wait", 0.0) < 0.001
        finally:
            server.stop()
            db.close()

    def test_shed_request_attributes_to_admission(self):
        """A rate-limited request never executes; its lifecycle records
        the admission terminal phase and the shed outcome."""
        db = make_db()
        config = ServiceConfig(tenant_rate=1.0, tenant_burst=1.0)
        server = ServerThread(db, config).start()
        try:
            with ServiceClient(port=server.port) as client:
                first = client.read("usertable", "by_key", (1,))
                second = client.read("usertable", "by_key", (2,))
            assert first.ok
            assert second.shed and second.code == "tenant_rate"
            assert second.request_id is not None

            assert wait_until(
                lambda: db.recorder.requests(request_id=second.request_id)
            )
            lifecycle = db.recorder.requests(request_id=second.request_id)[-1]
            assert lifecycle.outcome == "tenant_rate"
            assert lifecycle.terminal_phase == "admission"
            assert lifecycle.dominant_phase() == "admission"
            # It never held a slot, so no engine phase was ever stamped.
            assert all(name != "engine" for name, _, _ in lifecycle.phases)
        finally:
            server.stop()
            db.close()
