"""HTTP monitoring server: endpoint payloads, filters, and error handling."""

import json
import urllib.error
import urllib.request

import pytest

from repro import ColumnSpec, Database, INT64, ShardedDatabase, UTF8, obs
from repro.obs.server import PROMETHEUS_CONTENT_TYPE
from repro.obs.slo import RequestLifecycle


@pytest.fixture(autouse=True)
def _obs_enabled():
    was = obs.is_enabled()
    obs.configure(enabled=True)
    yield
    obs.configure(enabled=was)


@pytest.fixture
def served_db():
    db = Database()
    info = db.create_table("t", [ColumnSpec("id", INT64), ColumnSpec("v", UTF8)])
    with db.transaction() as txn:
        info.table.insert(txn, {0: 1, 1: "hello"})
        committed = txn.txn_id
    server = db.serve_obs()
    yield db, server, committed
    db.close()


def _get(server, path):
    with urllib.request.urlopen(server.url + path, timeout=5) as resp:
        return resp.status, resp.headers.get("Content-Type"), resp.read().decode()


def _get_json(server, path):
    status, _, body = _get(server, path)
    return status, json.loads(body)


def test_serve_obs_is_idempotent(served_db):
    db, server, _ = served_db
    assert db.serve_obs() is server
    assert server.url.startswith("http://127.0.0.1:")
    assert server.port > 0


def test_metrics_endpoint(served_db):
    _, server, _ = served_db
    status, content_type, body = _get(server, "/metrics")
    assert status == 200
    assert content_type == PROMETHEUS_CONTENT_TYPE
    assert "txn_commit_total 1" in body
    assert "# TYPE txn_commit_total counter" in body
    assert "obs_http_requests_total" in body


def test_healthz_endpoint(served_db):
    _, server, _ = served_db
    status, payload = _get_json(server, "/healthz")
    assert status == 200
    assert payload["status"] == "ok"
    wal = payload["wal"]
    assert wal["backlog"] == 0
    assert wal["last_fsync_age_seconds"] >= 0


def test_healthz_degraded_returns_503():
    db = Database()
    server = db.serve_obs()
    db.txn_manager.enter_degraded("disk gone")
    try:
        with pytest.raises(urllib.error.HTTPError) as err:
            _get(server, "/healthz")
        assert err.value.code == 503
        payload = json.loads(err.value.read().decode())
        assert payload["status"] == "degraded"
        assert payload["degraded_reason"] == "disk gone"
    finally:
        db.close()


def test_varz_endpoint(served_db):
    _, server, _ = served_db
    status, payload = _get_json(server, "/varz")
    assert status == 200
    assert set(payload) == {"counters", "gauges", "histograms"}
    assert payload["counters"]["txn.commit_total"] == 1


def test_events_endpoint_and_filters(served_db):
    _, server, committed = served_db
    status, payload = _get_json(server, "/events")
    assert status == 200
    assert payload["dropped_total"] == 0
    kinds = {e["kind"] for e in payload["events"]}
    assert "txn.begin" in kinds and "txn.commit" in kinds

    _, filtered = _get_json(server, f"/events?component=txn&txn={committed}")
    assert filtered["events"]
    assert all(e["txn_id"] == committed for e in filtered["events"])

    _, limited = _get_json(server, "/events?limit=1")
    assert len(limited["events"]) == 1


def test_events_bad_param_is_400(served_db):
    _, server, _ = served_db
    with pytest.raises(urllib.error.HTTPError) as err:
        _get(server, "/events?txn=notanint")
    assert err.value.code == 400


def test_timeline_endpoint(served_db):
    _, server, committed = served_db
    status, payload = _get_json(server, f"/timeline/{committed}")
    assert status == 200
    assert payload["txn_id"] == committed
    assert payload["status"] == "committed"
    assert payload["complete"] is True
    assert [e["kind"] for e in payload["events"]][0] == "txn.begin"


def test_timeline_unknown_txn_is_404(served_db):
    _, server, _ = served_db
    with pytest.raises(urllib.error.HTTPError) as err:
        _get(server, "/timeline/999999999")
    assert err.value.code == 404
    with pytest.raises(urllib.error.HTTPError) as err:
        _get(server, "/timeline/notanint")
    assert err.value.code == 400


def test_trace_endpoint(served_db):
    _, server, _ = served_db
    status, content_type, body = _get(server, "/trace")
    assert status == 200
    assert content_type.startswith("application/json")
    doc = json.loads(body)
    assert doc["traceEvents"]
    assert doc["otherData"]["producer"] == "repro.obs.recorder"


def test_index_and_404(served_db):
    _, server, _ = served_db
    status, payload = _get_json(server, "/")
    assert status == 200
    assert "/metrics" in payload["endpoints"]
    with pytest.raises(urllib.error.HTTPError) as err:
        _get(server, "/nope")
    assert err.value.code == 404


def test_scrapes_counted(served_db):
    db, server, _ = served_db
    before = db.obs.counter("obs.http_requests_total").value
    _get(server, "/metrics")
    _get(server, "/varz")
    assert db.obs.counter("obs.http_requests_total").value == before + 2


def test_stop_releases_socket(served_db):
    db, server, _ = served_db
    port = server.port
    db.stop_serving_obs()
    db.stop_serving_obs()  # idempotent
    with pytest.raises((urllib.error.URLError, ConnectionError)):
        urllib.request.urlopen(f"http://127.0.0.1:{port}/metrics", timeout=1)
    # Serving again after stop binds a fresh server.
    fresh = db.serve_obs()
    assert fresh is not server
    status, _, _ = _get(fresh, "/metrics")
    assert status == 200


def test_close_stops_server():
    db = Database()
    server = db.serve_obs()
    port = server.port
    db.close()
    with pytest.raises((urllib.error.URLError, ConnectionError)):
        urllib.request.urlopen(f"http://127.0.0.1:{port}/metrics", timeout=1)


# --------------------------------------------------------------------- #
# request attribution endpoints                                         #
# --------------------------------------------------------------------- #


def test_metrics_openmetrics_negotiation(served_db):
    from repro.obs.expo import OPENMETRICS_CONTENT_TYPE

    _, server, _ = served_db
    status, content_type, body = _get(server, "/metrics?format=openmetrics")
    assert status == 200
    assert content_type == OPENMETRICS_CONTENT_TYPE
    assert body.rstrip().endswith("# EOF")
    assert "txn_commit_total 1" in body
    assert "# TYPE txn_commit counter" in body

    request = urllib.request.Request(
        server.url + "/metrics",
        headers={"Accept": "application/openmetrics-text; version=1.0.0"},
    )
    with urllib.request.urlopen(request, timeout=5) as resp:
        assert resp.headers.get("Content-Type") == OPENMETRICS_CONTENT_TYPE

    with pytest.raises(urllib.error.HTTPError) as err:
        _get(server, "/metrics?format=nope")
    assert err.value.code == 400


def test_slo_endpoint(served_db):
    db, server, _ = served_db
    db.slo.record("acme", 0.01, ok=True)
    db.slo.record("acme", 9.0, ok=True)  # slow success burns budget
    status, payload = _get_json(server, "/slo")
    assert status == 200
    acme = payload["tenants"]["acme"]
    assert acme["windows"]["60s"]["total"] == 2
    assert acme["windows"]["60s"]["bad"] == 1
    assert acme["error_budget_remaining"] < 1.0


def test_request_endpoint(served_db):
    from repro.obs.slo import RequestLifecycle

    db, server, _ = served_db
    lifecycle = RequestLifecycle(7, op="read", tenant="acme")
    lifecycle.trace_id = 0xBEEF
    with lifecycle.phase("engine"):
        pass
    lifecycle.finish("ok")
    lifecycle.close()
    db.recorder.add(lifecycle)

    status, payload = _get_json(server, "/request/7")
    assert status == 200
    assert payload["request_id"] == 7
    assert payload["trace_id"] == "beef"
    assert [p["phase"] for p in payload["waterfall"]] == ["engine"]

    status, by_trace = _get_json(server, "/request/trace:beef")
    assert status == 200 and by_trace["request_id"] == 7

    for missing in ("/request/999", "/request/trace:aaaa"):
        with pytest.raises(urllib.error.HTTPError) as err:
            _get(server, missing)
        assert err.value.code == 404
    with pytest.raises(urllib.error.HTTPError) as err:
        _get(server, "/request/junk")  # malformed id, not an unknown one
    assert err.value.code == 400


def test_events_request_filter(served_db):
    from repro.obs.slo import RequestLifecycle

    db, server, _ = served_db
    lifecycle = RequestLifecycle(42, op="write")
    with lifecycle.activate():
        db.recorder.record("test.tagged", txn_id=1)
    db.recorder.record("test.untagged", txn_id=2)
    status, payload = _get_json(server, "/events?request=42")
    assert status == 200
    kinds = [e["kind"] for e in payload["events"]]
    assert "test.tagged" in kinds and "test.untagged" not in kinds
    assert all(e["request_id"] == 42 for e in payload["events"])


# --------------------------------------------------------------------- #
# the same endpoints on both engines                                    #
# --------------------------------------------------------------------- #


@pytest.fixture(
    params=[Database, lambda: ShardedDatabase(n_shards=2)],
    ids=["database", "sharded"],
)
def served_engine(request):
    """A served engine of either kind with one committed row."""
    db = request.param()
    info = db.create_table("t", [ColumnSpec("id", INT64), ColumnSpec("v", UTF8)])
    with db.transaction() as txn:
        info.table.insert(txn, {0: 1, 1: "hello"})
    yield db, db.serve_obs()
    db.close()


def test_healthz_on_both_engines(served_engine):
    _, server = served_engine
    status, payload = _get_json(server, "/healthz")
    assert status == 200 and payload["status"] == "ok"
    assert payload["wal"]["healthy"] is True
    assert payload["wal"]["backlog"] == 0
    assert payload["wal"]["last_fsync_age_seconds"] >= 0


def test_slo_on_both_engines(served_engine):
    db, server = served_engine
    db.slo.record("acme", 0.01, ok=True)
    status, payload = _get_json(server, "/slo")
    assert status == 200
    assert payload["tenants"]["acme"]["windows"]["60s"]["total"] == 1


def test_request_and_trace_on_both_engines(served_engine):
    db, server = served_engine
    lifecycle = RequestLifecycle(7, op="read", tenant="acme")
    lifecycle.trace_id = 0xBEEF
    with lifecycle.activate():
        db.recorder.record("test.tagged", txn_id=1)
    lifecycle.finish("ok")
    lifecycle.close()
    db.recorder.add(lifecycle)

    status, payload = _get_json(server, "/request/7")
    assert status == 200 and payload["trace_id"] == "beef"
    with pytest.raises(urllib.error.HTTPError) as err:
        _get(server, "/request/8")
    assert err.value.code == 404

    status, payload = _get_json(server, "/events?request=7")
    assert status == 200
    assert [e["kind"] for e in payload["events"]] == ["test.tagged"]

    status, _, body = _get(server, "/trace")
    assert status == 200
    requests = [
        e for e in json.loads(body)["traceEvents"] if e.get("cat") == "request"
    ]
    assert [e["args"]["request_id"] for e in requests] == [7]
