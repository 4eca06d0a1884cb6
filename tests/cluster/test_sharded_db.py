"""ShardedDatabase facade: routing, commit paths, health, recovery."""

import json
import urllib.error
import urllib.request

import pytest

from repro import INT64, UTF8, ColumnSpec, TransactionAborted, obs
from repro.catalog.catalog import TableInfo
from repro.cluster import ShardedDatabase
from repro.errors import StorageError


@pytest.fixture
def cluster():
    c = ShardedDatabase(n_shards=2)
    c.create_table(
        "kv",
        [ColumnSpec("id", INT64), ColumnSpec("v", UTF8)],
        shard_key="id",
    )
    c.create_index("kv", "pk", ["id"], kind="hash")
    c.create_index("kv", "by_id", ["id"], kind="bplus")
    c.create_table("ref", [ColumnSpec("id", INT64), ColumnSpec("v", UTF8)])
    yield c
    c.close()


def _insert(cluster, txn, row_id, value="x"):
    return cluster.catalog.table("kv").insert(txn, {0: row_id, 1: value})


class TestCommitPaths:
    def test_single_shard_commit_bypasses_2pc(self, cluster):
        with cluster.transaction() as txn:
            slot = _insert(cluster, txn, 4)  # 4 % 2 == shard 0
        assert slot.shard_id == 0
        assert list(txn.participants) == [0]
        assert txn.gid is None
        assert cluster.coordinator_log.commits_logged == 0

    def test_cross_shard_commit_goes_through_2pc(self, cluster):
        with cluster.transaction() as txn:
            _insert(cluster, txn, 4)  # shard 0
            _insert(cluster, txn, 5)  # shard 1
        assert sorted(txn.participants) == [0, 1]
        assert txn.gid is not None
        assert cluster.coordinator_log.commits_logged == 1
        reader = cluster.begin()
        rows = {r.get(0) for _, r in cluster.catalog.table("kv").scan(reader)}
        cluster.abort(reader)
        assert rows == {4, 5}

    def test_read_only_participants_do_not_vote(self, cluster):
        with cluster.transaction() as txn:
            _insert(cluster, txn, 4)
            _insert(cluster, txn, 5)
        with cluster.transaction() as txn:
            # Writes shard 0, reads shard 1: still the single-shard path.
            _insert(cluster, txn, 6)
            cluster.catalog.index("kv", "pk").lookup(txn, (5,))
        assert sorted(txn.participants) == [0, 1]
        assert txn.gid is None

    def test_abort_rolls_back_every_shard(self, cluster):
        txn = cluster.begin()
        _insert(cluster, txn, 4)
        _insert(cluster, txn, 5)
        cluster.abort(txn)
        reader = cluster.begin()
        assert list(cluster.catalog.table("kv").scan(reader)) == []
        cluster.abort(reader)

    def test_commit_after_abort_raises(self, cluster):
        txn = cluster.begin()
        cluster.abort(txn)
        with pytest.raises(TransactionAborted):
            cluster.commit(txn)

    def test_durability_ack_fires_once_all_shards_flush(self, cluster):
        txn = cluster.begin()
        _insert(cluster, txn, 4)
        _insert(cluster, txn, 5)
        fired = []
        txn.on_durable(lambda: fired.append(True))
        cluster.commit(txn)  # synchronous WAL: durable at commit return
        assert fired == [True]
        assert txn.is_durable


class TestRoutingSurfaces:
    def test_routed_lookup_stays_on_one_shard(self, cluster):
        with cluster.transaction() as txn:
            _insert(cluster, txn, 5)
        reader = cluster.begin()
        hits = cluster.catalog.index("kv", "pk").lookup(reader, (5,))
        assert [slot.shard_id for slot, _ in hits] == [1]
        assert list(reader.participants) == [1]  # no fan-out participant
        cluster.abort(reader)

    def test_range_scan_merges_shards_in_key_order(self, cluster):
        with cluster.transaction() as txn:
            for i in (3, 0, 5, 2):
                _insert(cluster, txn, i)
        reader = cluster.begin()
        keys = [
            k for k, _, _ in cluster.catalog.index("kv", "by_id").range_scan(reader)
        ]
        cluster.abort(reader)
        assert keys == sorted(keys)
        assert len(keys) == 4

    def test_replicated_table_broadcasts_writes(self, cluster):
        with cluster.transaction() as txn:
            cluster.catalog.table("ref").insert(txn, {0: 1, 1: "r"})
        for shard in cluster.shards:
            reader = shard.begin()
            rows = list(shard.catalog.table("ref").scan(reader))
            shard.abort(reader)
            assert len(rows) == 1

    def test_replicated_scan_reads_one_replica(self, cluster):
        with cluster.transaction() as txn:
            cluster.catalog.table("ref").insert(txn, {0: 1, 1: "r"})
        reader = cluster.begin()
        rows = list(cluster.catalog.table("ref").scan(reader))
        cluster.abort(reader)
        assert len(rows) == 1
        assert cluster.catalog.table("ref").live_tuple_count() == 1
        # Block states count one replica too, not every shard's copy.
        replica = cluster.shards[0].catalog.table("ref").block_states()
        assert cluster.catalog.table("ref").block_states() == replica


    def test_partitions_are_the_shard_tables(self, cluster):
        kv = [shard.catalog.table("kv") for shard in cluster.shards]
        assert list(cluster.partitions("kv")) == [
            (shard.txn_manager, table) for shard, table in zip(cluster.shards, kv)
        ]
        txn = cluster.begin()
        walk = cluster.partitions("kv", txn)
        assert next(walk) == (txn.participants[0], kv[0])
        assert list(txn.participants) == [0]  # shard 1 not reached yet
        assert list(walk) == [(txn.participants[1], kv[1])]
        cluster.abort(txn)

    def test_replicated_partitions_are_one_replica(self, cluster):
        ref = [shard.catalog.table("ref") for shard in cluster.shards]
        for replica in range(4):
            [(_, table)] = cluster.partitions("ref", replica=replica)
            assert table is ref[replica % 2]
        txn = cluster.begin()
        _insert(cluster, txn, 5)  # a participant on shard 1
        [(local, table)] = cluster.partitions("ref", txn)
        assert (local, table) == (txn.participants[1], ref[1])
        cluster.abort(txn)

    def test_catalog_get_is_a_table_info(self, cluster):
        info = cluster.catalog.get("kv")
        assert isinstance(info, TableInfo)
        assert info is cluster.catalog.get("kv")
        assert info.table is cluster.catalog.table("kv")
        assert info.column_id("v") == 1
        with pytest.raises(StorageError):
            info.column_id("missing")
        assert sorted(info.indexes) == ["by_id", "pk"]
        assert info.indexes["pk"] is cluster.catalog.index("kv", "pk")


class TestHealthAndObs:
    @pytest.fixture(autouse=True)
    def _obs_enabled(self):
        was = obs.is_enabled()
        obs.configure(enabled=True)
        yield
        obs.configure(enabled=was)

    def test_health_aggregates_shards(self, cluster):
        health = cluster.health()
        assert health["status"] == "ok"
        assert sorted(health["shards"]) == ["0", "1"]
        assert health["coordinator"]["healthy"]

    def test_slo_is_reported_once_for_the_cluster(self, cluster):
        cluster.slo.record("t1", 0.002, ok=True)
        health = cluster.health()
        assert health["slo"]["tenants"] == 1
        assert all("slo" not in shard for shard in health["shards"].values())

    def test_any_degraded_shard_degrades_the_cluster(self, cluster):
        cluster.shards[1].txn_manager.enter_degraded("disk gone")
        health = cluster.health()
        assert health["status"] == "degraded"
        assert health["degraded_shards"] == [1]
        assert "shard 1" in health["degraded_reason"]
        assert cluster.degraded

    def test_healthz_returns_503_when_a_shard_degrades(self, cluster):
        server = cluster.serve_obs()
        cluster.shards[0].txn_manager.enter_degraded("disk gone")
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(server.url + "/healthz", timeout=5)
        assert err.value.code == 503
        payload = json.loads(err.value.read().decode())
        assert payload["status"] == "degraded"
        assert payload["degraded_shards"] == [0]

    def test_cluster_metrics_exported(self, cluster):
        with cluster.transaction() as txn:
            _insert(cluster, txn, 4)
            _insert(cluster, txn, 5)
        server = cluster.serve_obs()
        with urllib.request.urlopen(server.url + "/metrics", timeout=5) as resp:
            body = resp.read().decode()
        assert "cluster_shards 2" in body
        assert "cluster_txn_cross_shard_total 1" in body
        assert 'cluster_shard_healthy{shard="0"} 1' in body
        assert 'cluster_shard_healthy{shard="1"} 1' in body

    def test_recorder_sees_2pc_events(self, cluster):
        with cluster.transaction() as txn:
            _insert(cluster, txn, 4)
            _insert(cluster, txn, 5)
        kinds = {e.kind for e in cluster.recorder.events()}
        assert {"cluster.prepare", "cluster.decide"} <= kinds


class TestRecovery:
    def test_round_trip_recovers_all_commits(self, cluster):
        with cluster.transaction() as txn:
            _insert(cluster, txn, 0, "a")
        with cluster.transaction() as txn:
            _insert(cluster, txn, 1, "b")
            _insert(cluster, txn, 2, "c")
        cluster.flush_all()

        fresh = ShardedDatabase(n_shards=2)
        fresh.create_table(
            "kv", [ColumnSpec("id", INT64), ColumnSpec("v", UTF8)], shard_key="id"
        )
        stats = fresh.recover_from(
            cluster.shard_log_contents(), cluster.coordinator_log_contents()
        )
        assert stats["transactions_replayed"] >= 3  # per-shard participants
        assert stats["in_doubt"] == 0
        reader = fresh.begin()
        rows = {
            r.get(0): r.get(1) for _, r in fresh.catalog.table("kv").scan(reader)
        }
        fresh.abort(reader)
        fresh.close()
        assert rows == {0: "a", 1: "b", 2: "c"}

    def test_shard_log_count_mismatch_raises(self, cluster):
        fresh = ShardedDatabase(n_shards=2)
        fresh.create_table(
            "kv", [ColumnSpec("id", INT64), ColumnSpec("v", UTF8)], shard_key="id"
        )
        from repro.errors import CatalogError

        with pytest.raises(CatalogError):
            fresh.recover_from([b""], b"")
        fresh.close()
