"""Tests for the hysteretic write gate over health reports."""

from repro import INT64, ColumnSpec
from repro.cluster import ShardedDatabase
from repro.obs.recorder import Recorder
from repro.obs.registry import MetricRegistry
from repro.service.gate import HealthGate, wal_backlog

import pytest


def report(status="ok", backlog=0):
    return {"status": status, "wal": {"backlog": backlog}}


def sharded_report(backlog_on_shard_1=0):
    """A real 2-shard cluster's health with ``backlog_on_shard_1`` commits
    left unflushed on shard 1 (shard 0's log stays drained)."""
    cluster = ShardedDatabase(n_shards=2)
    cluster.create_table("kv", [ColumnSpec("id", INT64)], shard_key="id")
    cluster.shards[1].log_manager.synchronous = False
    table = cluster.catalog.table("kv")
    for i in range(backlog_on_shard_1):
        with cluster.transaction() as txn:
            table.insert(txn, {0: 2 * i + 1})  # odd ids route to shard 1
    health = cluster.health()
    cluster.close()
    return health


class TestWalBacklog:
    def test_single_node(self):
        assert wal_backlog(report(backlog=7)) == 7

    def test_sharded_takes_the_worst_shard(self):
        health = sharded_report(backlog_on_shard_1=3)
        assert health["shards"]["0"]["wal"]["backlog"] == 0
        assert health["wal"]["backlog"] == 3
        assert wal_backlog(health) == 3

    def test_logging_disabled_is_zero(self):
        assert wal_backlog({"status": "ok", "wal": None}) == 0
        assert ShardedDatabase(n_shards=2, logging_enabled=False).health()["wal"] is None


class TestHealthGate:
    def test_closes_at_high_watermark(self):
        gate = HealthGate(backlog_high=10, backlog_low=2, reopen_after=2)
        assert gate.observe(report(backlog=9))
        assert not gate.observe(report(backlog=10))
        assert "backlog" in gate.reason

    def test_degraded_status_closes_regardless_of_backlog(self):
        gate = HealthGate(backlog_high=10)
        assert not gate.observe(report(status="degraded", backlog=0))
        assert "degraded" in gate.reason

    def test_hysteresis_no_flap_at_the_boundary(self):
        gate = HealthGate(backlog_high=10, backlog_low=2, reopen_after=2)
        gate.observe(report(backlog=10))
        # Draining below high but above low must NOT reopen.
        assert not gate.observe(report(backlog=9))
        assert not gate.observe(report(backlog=3))
        # At/below low, reopen only after `reopen_after` consecutive checks.
        assert not gate.observe(report(backlog=2))
        assert gate.observe(report(backlog=1))

    def test_unhealthy_check_resets_the_reopen_streak(self):
        gate = HealthGate(backlog_high=10, backlog_low=2, reopen_after=2)
        gate.observe(report(backlog=10))
        assert not gate.observe(report(backlog=0))
        assert not gate.observe(report(backlog=5))  # streak broken
        assert not gate.observe(report(backlog=0))
        assert gate.observe(report(backlog=0))

    def test_sharded_one_bad_shard_closes_the_cluster_gate(self):
        gate = HealthGate(backlog_high=4, backlog_low=0, reopen_after=1)
        assert gate.observe(sharded_report(backlog_on_shard_1=0))
        assert not gate.observe(sharded_report(backlog_on_shard_1=4))
        assert gate.reason == "wal backlog 4"
        assert gate.observe(sharded_report(backlog_on_shard_1=0))

    def test_transition_counters_and_events(self):
        registry = MetricRegistry()
        recorder = Recorder(registry=registry)
        gate = HealthGate(
            backlog_high=4, backlog_low=0, reopen_after=1,
            registry=registry, recorder=recorder,
        )
        gate.observe(report(backlog=4))
        gate.observe(report(backlog=4))  # still closed: no second transition
        gate.observe(report(backlog=0))
        closed = registry.counter("service.write_gate_closed_total")
        reopened = registry.counter("service.write_gate_reopened_total")
        assert int(closed.value) == 1
        assert int(reopened.value) == 1
        states = [e.attrs["state"] for e in recorder.events(kind="service.write_gate")]
        assert states == ["closed", "open"]

    def test_gauge_tracks_state_and_unregisters_idempotently(self):
        registry = MetricRegistry()
        gate = HealthGate(backlog_high=4, backlog_low=0, reopen_after=1,
                          registry=registry)
        gauge = registry.gauge("service.write_gate_open")
        assert gauge.value == 1.0
        gate.observe(report(backlog=99))
        assert gauge.value == 0.0
        gate.unregister_metrics()
        gate.unregister_metrics()
        assert registry.unregister("service.write_gate_open") is False

    def test_validates_watermarks(self):
        with pytest.raises(ValueError):
            HealthGate(backlog_high=0)
        with pytest.raises(ValueError):
            HealthGate(backlog_high=4, backlog_low=4)
        with pytest.raises(ValueError):
            HealthGate(reopen_after=0)
