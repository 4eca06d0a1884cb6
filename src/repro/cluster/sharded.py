"""``ShardedDatabase``: N independent engines behind one database facade.

Each shard is a full, unmodified :class:`repro.db.Database` with its own
timestamp domain, WAL, GC, and transformation pipeline.  The facade owns
a :class:`~repro.cluster.router.Router` mapping rows and index keys to
shards, a :class:`~repro.cluster.coordinator.TwoPhaseCoordinator` with a
durable decision log, and cluster-level observability (a shared flight
recorder plus per-shard gauges in one registry).

A transaction here is a :class:`DistributedTransaction`: per-shard
participant transactions begun lazily the first time an operation touches
a shard.  At commit:

- no participants, or writes on a single shard → plain per-shard commit,
  exactly the single-node code path (read-only participants on other
  shards just end their snapshots);
- writes on two or more shards → two-phase commit through the
  coordinator (prepare is WAL-forced per shard, the commit decision is
  forced to the coordinator log, recovery is presumed-abort).

``ShardedDatabase`` and ``Database`` share one base, :class:`repro.db.Engine`
(observability wiring, ``transaction()``, ``run_transaction()``,
``timeline()``, ``serve_obs()``).  The cluster adds ``begin/commit/abort``,
a catalog of plain :class:`~repro.catalog.catalog.TableInfo`, a ``health()``
of ``Database``'s shape, ``flush_all()`` and ``partitions()``, so TPC-C,
the retry helper, the service and the obs server run on either engine.
"""

from __future__ import annotations

import heapq
import itertools
import threading
from dataclasses import dataclass
from typing import Any, BinaryIO, Iterable, Iterator, Literal, Mapping

from repro.catalog.catalog import TableInfo
from repro.cluster.coordinator import CoordinatorLog, TwoPhaseCoordinator
from repro.cluster.router import Router
from repro.db import Database, Engine
from repro.errors import CatalogError, TransactionAborted, TwoPhaseInDoubt
from repro.storage.constants import BLOCK_SIZE
from repro.storage.data_table import DataTable
from repro.storage.layout import ColumnSpec
from repro.storage.projection import ProjectedRow
from repro.storage.tuple_slot import TupleSlot
from repro.txn.context import DurabilitySignal, TransactionContext, TxnState
from repro.wal.records import DECISION_COMMIT
from repro.wal.recovery import RecoveryManager


@dataclass(frozen=True)
class ShardSlot:
    """A tuple address qualified by the shard that owns it."""

    shard_id: int
    slot: TupleSlot

    def __repr__(self) -> str:
        return f"ShardSlot(shard={self.shard_id}, {self.slot})"


class DistributedTransaction(DurabilitySignal):
    """One logical transaction spanning lazily-begun shard participants.

    It is durable once every participant is (see ``_wire_durability``).
    """

    def __init__(self, cluster: "ShardedDatabase", txn_id: int) -> None:
        self._cluster = cluster
        self.txn_id = txn_id
        #: Shard id → that shard's participant transaction.
        self.participants: dict[int, TransactionContext] = {}
        self.state = TxnState.ACTIVE
        #: Global id, assigned only if commit goes through 2PC.
        self.gid: str | None = None
        self.commit_ts: int | None = None

    # -- state --------------------------------------------------------- #

    @property
    def is_active(self) -> bool:
        return self.state is TxnState.ACTIVE

    @property
    def must_abort(self) -> bool:
        return any(txn.must_abort for txn in self.participants.values())

    @property
    def redo_buffer(self) -> list:
        """Combined redo records across participants (sized, iterable)."""
        records: list = []
        for txn in self.participants.values():
            records.extend(txn.redo_buffer)
        return records

    # -- shard access -------------------------------------------------- #

    def on_shard(self, shard_id: int) -> TransactionContext:
        """The participant on ``shard_id``, begun on first touch."""
        txn = self.participants.get(shard_id)
        if txn is None:
            if self.state is not TxnState.ACTIVE:
                raise TransactionAborted(f"transaction already {self.state.value}")
            txn = self._cluster.shards[shard_id].begin()
            self.participants[shard_id] = txn
        return txn

    def read_shard(self) -> int:
        """Shard used for replicated-table reads: an existing participant
        when there is one (so a single-warehouse transaction stays
        single-shard), else this transaction's home shard."""
        if self.participants:
            return min(self.participants)
        return self.txn_id % self._cluster.n_shards

    # -- durability ---------------------------------------------------- #

    def _wire_durability(self) -> None:
        """Count down participant durability into one cluster-level signal."""
        participants = list(self.participants.values())
        if not participants:
            self.signal_durable()
            return
        remaining = len(participants)
        lock = threading.Lock()

        def one_done() -> None:
            nonlocal remaining
            with lock:
                remaining -= 1
                last = remaining == 0
            if last:
                self.signal_durable()

        for txn in participants:
            txn.on_durable(one_done)

    def __repr__(self) -> str:
        return (
            f"DistributedTransaction(id={self.txn_id}, state={self.state.value}, "
            f"shards={sorted(self.participants)})"
        )


class ShardedTable:
    """Routes one table's operations to the owning shards."""

    def __init__(self, cluster: "ShardedDatabase", name: str) -> None:
        self._cluster = cluster
        self.name = name

    def _local(self, shard_id: int):
        return self._cluster.shards[shard_id].catalog.table(self.name)

    def insert(
        self, txn: DistributedTransaction, values: Mapping[int, Any]
    ) -> ShardSlot:
        route = self._cluster.router.route(self.name)
        if route.replicated:
            # Writes to replicated tables broadcast to every replica.
            first: ShardSlot | None = None
            for shard_id in range(self._cluster.n_shards):
                slot = self._local(shard_id).insert(txn.on_shard(shard_id), values)
                if first is None:
                    first = ShardSlot(shard_id, slot)
            assert first is not None
            return first
        shard_id = self._cluster.router.shard_for_row(self.name, values)
        slot = self._local(shard_id).insert(txn.on_shard(shard_id), values)
        return ShardSlot(shard_id, slot)

    def update(
        self, txn: DistributedTransaction, slot: ShardSlot, values: Mapping[int, Any]
    ) -> bool:
        return self._local(slot.shard_id).update(
            txn.on_shard(slot.shard_id), slot.slot, values
        )

    def delete(self, txn: DistributedTransaction, slot: ShardSlot) -> bool:
        return self._local(slot.shard_id).delete(
            txn.on_shard(slot.shard_id), slot.slot
        )

    def scan(
        self, txn: DistributedTransaction, column_ids: list[int] | None = None
    ) -> Iterator[tuple[ShardSlot, ProjectedRow]]:
        for shard_id in self._cluster.read_shards(self.name, txn):
            for slot, row in self._local(shard_id).scan(
                txn.on_shard(shard_id), column_ids
            ):
                yield ShardSlot(shard_id, slot), row

    def live_tuple_count(self) -> int:
        return sum(
            self._local(s).live_tuple_count()
            for s in self._cluster.read_shards(self.name)
        )

    def block_states(self) -> dict:
        merged: dict = {}
        for shard_id in self._cluster.read_shards(self.name):
            for state, count in self._local(shard_id).block_states().items():
                merged[state] = merged.get(state, 0) + count
        return merged


class ShardedIndex:
    """Routes one index's lookups/scans to the owning shards."""

    def __init__(
        self, cluster: "ShardedDatabase", table_name: str, index_name: str
    ) -> None:
        self._cluster = cluster
        self.table_name = table_name
        self.index_name = index_name

    def _local(self, shard_id: int):
        return self._cluster.shards[shard_id].catalog.index(
            self.table_name, self.index_name
        )

    def lookup(
        self,
        txn: DistributedTransaction,
        key: tuple,
        column_ids: list[int] | None = None,
    ) -> list[tuple[ShardSlot, ProjectedRow]]:
        router = self._cluster.router
        if router.is_routable(self.table_name, self.index_name):
            shard_ids = [router.shard_for_key(self.table_name, self.index_name, key)]
        else:
            shard_ids = self._cluster.read_shards(self.table_name, txn)
        results: list[tuple[ShardSlot, ProjectedRow]] = []
        for sid in shard_ids:
            results.extend(
                (ShardSlot(sid, slot), row)
                for slot, row in self._local(sid).lookup(
                    txn.on_shard(sid), key, column_ids
                )
            )
        return results

    def range_scan(
        self,
        txn: DistributedTransaction,
        low: tuple | None = None,
        high: tuple | None = None,
        column_ids: list[int] | None = None,
    ) -> Iterable[tuple[tuple, ShardSlot, ProjectedRow]]:
        router = self._cluster.router
        shard_ids = self._cluster.read_shards(self.table_name, txn)
        if (
            router.is_routable(self.table_name, self.index_name)
            and low is not None
            and high is not None
            and router.shard_of(low[0]) == router.shard_of(high[0])
        ):
            shard_ids = [router.shard_of(low[0])]

        def per_shard(sid: int):
            for key, slot, row in self._local(sid).range_scan(
                txn.on_shard(sid), low, high, column_ids
            ):
                yield key, ShardSlot(sid, slot), row

        if len(shard_ids) == 1:
            yield from per_shard(shard_ids[0])
            return
        # Keys are totally ordered within each shard; merge preserves the
        # global order a single-node range scan would produce.
        yield from heapq.merge(
            *(per_shard(sid) for sid in shard_ids), key=lambda item: item[0]
        )


class ShardedCatalog:
    """Name → :class:`TableInfo` over the sharded table and index facades."""

    def __init__(self, cluster: "ShardedDatabase") -> None:
        self._cluster = cluster
        self._tables: dict[str, TableInfo] = {}

    def get(self, name: str) -> TableInfo:
        info = self._tables.get(name)
        if info is None:
            columns = self._cluster.shards[0].catalog.get(name).columns
            info = TableInfo(name, ShardedTable(self._cluster, name), columns)
            self._tables[name] = info
        return info

    def table(self, name: str) -> ShardedTable:
        return self.get(name).table

    def index(self, table_name: str, index_name: str) -> ShardedIndex:
        try:
            return self.get(table_name).indexes[index_name]
        except KeyError:
            raise CatalogError(
                f"table {table_name!r} has no index {index_name!r}"
            ) from None


class ShardedDatabase(Engine):
    """N hash-sharded engine instances behind one database facade."""

    def __init__(
        self,
        n_shards: int = 2,
        shard_keys: Mapping[str, str] | None = None,
        log_devices: list[BinaryIO] | None = None,
        coordinator_device: BinaryIO | None = None,
        logging_enabled: bool = True,
        node_name: str = "node0",
        slow_txn_threshold: float | None = None,
        **db_kwargs: Any,
    ) -> None:
        if n_shards < 1:
            raise CatalogError("a cluster needs at least one shard")
        if log_devices is not None and len(log_devices) != n_shards:
            raise CatalogError(
                f"{len(log_devices)} log devices for {n_shards} shards"
            )
        self.n_shards = n_shards
        self.node_name = node_name
        #: Table name → shard column name, consulted by ``create_table``
        #: when no explicit ``shard_key`` is passed (tables absent from
        #: the map are replicated).
        self._shard_keys = dict(shard_keys or {})
        # ``obs`` is the cluster-level registry (per-shard gauges plus 2PC
        # counters; shard-internal metrics stay in each shard's own), and
        # the one ``recorder`` is shared by every shard and the
        # coordinator, so cross-shard timelines interleave in causal order.
        super().__init__(slow_txn_threshold=slow_txn_threshold)
        devices: list[BinaryIO | None] = (
            list(log_devices) if log_devices is not None else [None] * n_shards
        )
        self.shards = [
            Database(
                log_device=devices[i],
                logging_enabled=logging_enabled,
                recorder=self.recorder,
                **db_kwargs,
            )
            for i in range(n_shards)
        ]
        self.router = Router(n_shards)
        self.catalog = ShardedCatalog(self)
        self.coordinator_log = CoordinatorLog(coordinator_device)
        self.coordinator = TwoPhaseCoordinator(
            self, self.coordinator_log, registry=self.obs, recorder=self.recorder
        )
        self._txn_seq = itertools.count(1)
        self._gid_seq = itertools.count(1)
        #: In-doubt transactions resolved by the last ``recover_from``.
        self.indoubt_resolved = {"commit": 0, "abort": 0}
        reg = self.obs
        self._m_single = reg.counter(
            "cluster.txn_single_shard_total",
            "transactions committed on the single-shard fast path",
        )
        self._m_cross = reg.counter(
            "cluster.txn_cross_shard_total",
            "transactions committed/aborted through two-phase commit",
        )
        reg.gauge("cluster.shards", "shards in this cluster").set(n_shards)
        reg.gauge(
            "cluster.coordinator.healthy",
            "1 while the coordinator decision log works",
            callback=lambda: 0.0 if self.coordinator_log.degraded else 1.0,
        )
        for i, shard in enumerate(self.shards):
            self._register_shard_gauges(i, shard)

    def _register_shard_gauges(self, shard_id: int, shard: Database) -> None:
        """Per-shard health/load gauges, one labelled series per shard."""
        labels = {"shard": str(shard_id)}
        reg = self.obs
        reg.gauge(
            "cluster.shard.healthy",
            "1 while this shard accepts writes",
            callback=lambda: 0.0 if shard.degraded else 1.0,
            labels=labels,
        )
        reg.gauge(
            "cluster.shard.txns_active",
            "in-flight transactions on this shard",
            callback=lambda: shard.txn_manager.active_count,
            labels=labels,
        )
        reg.gauge(
            "cluster.shard.wal_pending",
            "this shard's flush-queue depth",
            callback=lambda: (
                shard.log_manager.pending_count
                if shard.log_manager is not None
                else 0
            ),
            labels=labels,
        )
        reg.gauge(
            "cluster.shard.live_tuples",
            "visible tuples on this shard",
            callback=shard._live_tuple_count,
            labels=labels,
        )

    # ------------------------------------------------------------------ #
    # DDL                                                                 #
    # ------------------------------------------------------------------ #

    def create_table(
        self,
        name: str,
        columns: list[ColumnSpec],
        block_size: int = BLOCK_SIZE,
        watch_cold: bool = False,
        shard_key: str | None = None,
    ) -> TableInfo:
        """Create a table on every shard and register its route.

        ``shard_key`` names the shard column; when omitted the
        constructor's ``shard_keys`` map is consulted, and a table in
        neither is *replicated* (broadcast writes, single-replica reads).
        """
        key = shard_key if shard_key is not None else self._shard_keys.get(name)
        for shard in self.shards:
            shard.create_table(
                name, columns, block_size=block_size, watch_cold=watch_cold
            )
        info = self.catalog.get(name)
        column = None if key is None else info.column_id(key)
        self.router.register_table(name, column, key)
        return info

    def create_index(
        self,
        table_name: str,
        index_name: str,
        key_columns: list[str],
        kind: Literal["bplus", "hash"] = "bplus",
    ) -> ShardedIndex:
        for shard in self.shards:
            shard.create_index(table_name, index_name, key_columns, kind)
        self.router.register_index(table_name, index_name, key_columns)
        index = ShardedIndex(self, table_name, index_name)
        self.catalog.get(table_name).indexes[index_name] = index
        return index

    # ------------------------------------------------------------------ #
    # transactions                                                        #
    # ------------------------------------------------------------------ #

    def begin(self) -> DistributedTransaction:
        """Start a distributed transaction (participants begin lazily)."""
        return DistributedTransaction(self, next(self._txn_seq))

    def commit(self, dtxn: DistributedTransaction) -> int:
        """Commit; single-writer transactions take the untouched per-shard
        path, multi-writer transactions go through two-phase commit.

        Returns the largest per-shard commit timestamp.  Raises
        :class:`TransactionAborted` / :class:`CoordinationAbort` after
        rolling back everywhere, or :class:`TwoPhaseInDoubt` leaving the
        participants prepared for recovery.
        """
        if dtxn.state is not TxnState.ACTIVE:
            raise TransactionAborted(f"transaction already {dtxn.state.value}")
        if dtxn.must_abort:
            self.abort(dtxn)
            raise TransactionAborted("transaction aborted by write-write conflict")
        writers = {
            sid: txn
            for sid, txn in dtxn.participants.items()
            if not txn.is_read_only
        }
        dtxn._wire_durability()
        try:
            # Read-only participants just end their snapshots — they hold
            # no locks and need no vote (the read-only 2PC optimization).
            for sid in sorted(dtxn.participants):
                if sid not in writers:
                    self.shards[sid].commit(dtxn.participants[sid])
            if len(writers) <= 1:
                self._m_single.inc()
                commit_ts = 0
                for sid, txn in writers.items():
                    commit_ts = self.shards[sid].commit(txn)
            else:
                self._m_cross.inc()
                dtxn.gid = f"{self.node_name}.{next(self._gid_seq)}"
                commit_ts = self.coordinator.commit(dtxn)
        except TwoPhaseInDoubt:
            dtxn.state = TxnState.PREPARED
            raise
        except BaseException:
            if dtxn.state is TxnState.ACTIVE:
                dtxn.state = TxnState.ABORTED
            raise
        dtxn.state = TxnState.COMMITTED
        dtxn.commit_ts = commit_ts
        return commit_ts

    def abort(self, dtxn: DistributedTransaction) -> None:
        """Roll back every live participant."""
        if dtxn.state is not TxnState.ACTIVE:
            raise TransactionAborted(f"transaction already {dtxn.state.value}")
        for sid in sorted(dtxn.participants):
            txn = dtxn.participants[sid]
            if txn.state in (TxnState.ACTIVE, TxnState.PREPARED):
                self.shards[sid].abort(txn)
        dtxn.state = TxnState.ABORTED
        dtxn.signal_durable()

    def read_shards(
        self, name: str, txn: DistributedTransaction | None = None, replica: int = 0
    ) -> range | list[int]:
        """The shards whose copies of ``name`` hold its rows once: every
        shard for a sharded table; for a replicated one the replica
        ``txn.read_shard()`` picks, or without a transaction the one
        ``replica`` picks (modulo the shard count)."""
        if not self.router.route(name).replicated:
            return range(self.n_shards)
        return [txn.read_shard() if txn is not None else replica % self.n_shards]

    def partitions(
        self, name: str, txn: DistributedTransaction | None = None, replica: int = 0
    ) -> Iterator[tuple[Any, DataTable]]:
        """Each local ``(txn or txn manager, DataTable)`` of ``name`` over
        :meth:`read_shards`: under ``txn`` its participant on that shard,
        begun only when the iteration reaches it; without one the shard's
        txn manager.  The service's export passes its request id as
        ``replica``, so exports of a replicated table spread over the
        shards."""
        for shard_id in self.read_shards(name, txn, replica):
            shard = self.shards[shard_id]
            local = shard.txn_manager if txn is None else txn.on_shard(shard_id)
            yield local, shard.catalog.table(name)

    # ------------------------------------------------------------------ #
    # maintenance                                                         #
    # ------------------------------------------------------------------ #

    def run_maintenance(self, passes: int = 1) -> int:
        return sum(shard.run_maintenance(passes) for shard in self.shards)

    def quiesce(self, max_passes: int = 16) -> None:
        for shard in self.shards:
            shard.quiesce(max_passes)

    def flush_all(self) -> None:
        """Flush every shard's WAL queue (coordinator log needs none —
        commit decisions are forced at decision time)."""
        for shard in self.shards:
            shard.flush_all()

    def close(self) -> None:
        self.stop_serving_obs()
        first_error: BaseException | None = None
        for shard in self.shards:
            try:
                shard.close()
            except Exception as exc:
                if first_error is None:
                    first_error = exc
        if first_error is not None:
            raise first_error

    # ------------------------------------------------------------------ #
    # health & observability                                              #
    # ------------------------------------------------------------------ #

    @property
    def degraded(self) -> bool:
        return self.coordinator_log.degraded or any(
            shard.degraded for shard in self.shards
        )

    def health(self) -> dict:
        """Aggregated liveness: cluster status is the worst shard's.

        ``status`` is ``"degraded"`` as soon as *any* shard (or the
        coordinator log) is degraded — the obs HTTP server turns that
        into a 503 on ``/healthz``.  ``wal`` rolls the shards' sections
        up into ``Database.health()``'s shape (see :func:`_roll_up_wal`);
        the per-shard reports stay under ``shards``, without an ``slo``
        section: the service records into the cluster's tracker, never a
        shard's, so ``slo`` appears once, at the top.
        """
        shards = {str(i): shard.health() for i, shard in enumerate(self.shards)}
        for report in shards.values():
            del report["slo"]
        degraded_shards = [
            i for i, shard in enumerate(self.shards) if shard.degraded
        ]
        reason = None
        if self.coordinator_log.degraded:
            reason = self.coordinator_log.degraded_reason
        elif degraded_shards:
            first = degraded_shards[0]
            reason = (
                f"shard {first} degraded: "
                f"{self.shards[first].txn_manager.degraded_reason}"
            )
        return {
            "status": "degraded" if self.degraded else "ok",
            "degraded_reason": reason,
            "shards": shards,
            "degraded_shards": degraded_shards,
            "coordinator": {
                "healthy": not self.coordinator_log.degraded,
                "degraded_reason": self.coordinator_log.degraded_reason,
                "commits_logged": self.coordinator_log.commits_logged,
                "aborts_logged": self.coordinator_log.aborts_logged,
                "in_doubt_resolved": dict(self.indoubt_resolved),
            },
            "wal": _roll_up_wal([s["wal"] for s in shards.values() if s["wal"]]),
            "slo": self.slo.health_summary(),
        }

    # ------------------------------------------------------------------ #
    # durability & recovery                                               #
    # ------------------------------------------------------------------ #

    def shard_log_contents(self) -> list[bytes]:
        """Every shard's WAL image, in shard order (in-memory devices)."""
        return [shard.log_contents() for shard in self.shards]

    def coordinator_log_contents(self) -> bytes:
        return self.coordinator_log.contents()

    def recover_from(
        self,
        shard_logs: list[bytes],
        coordinator_log: bytes,
        tolerate_torn_tail: bool = True,
    ) -> dict:
        """Replay per-shard WALs into this (fresh) cluster, resolving
        in-doubt prepares against the coordinator's decision log.

        Presumed abort: an in-doubt transaction commits only when the
        coordinator log contains a commit decision for its gid; any other
        state — abort decision, torn decision, no decision — aborts it
        (its prepared operations are simply never applied).  Because the
        coordinator forces commit decisions before phase 2, and
        participants force prepares before acking, every gid the log
        commits has durable prepares everywhere it wrote.
        """
        if len(shard_logs) != self.n_shards:
            raise CatalogError(
                f"{len(shard_logs)} shard logs for {self.n_shards} shards"
            )
        decisions = CoordinatorLog.decisions_from(coordinator_log)
        stats = {
            "transactions_replayed": 0,
            "in_doubt": 0,
            "resolved_commit": 0,
            "resolved_abort": 0,
        }
        for shard_id, (shard, raw) in enumerate(zip(self.shards, shard_logs)):
            recovery = RecoveryManager(
                shard.txn_manager, shard.catalog.data_tables()
            )
            replayed, indoubt = recovery.replay_with_indoubt(
                raw, tolerate_torn_tail=tolerate_torn_tail
            )
            stats["transactions_replayed"] += replayed
            for gid, operations in indoubt.items():
                stats["in_doubt"] += 1
                if decisions.get(gid) == DECISION_COMMIT:
                    recovery.apply_operations(operations)
                    stats["resolved_commit"] += 1
                    stats["transactions_replayed"] += 1
                    self.indoubt_resolved["commit"] += 1
                    outcome = "commit"
                else:
                    stats["resolved_abort"] += 1
                    self.indoubt_resolved["abort"] += 1
                    outcome = "abort"
                self.recorder.record(
                    "cluster.resolve", gid=gid, shard=shard_id, decision=outcome
                )
        return stats


def _roll_up_wal(wals: list[dict]) -> dict | None:
    """The shards' ``wal`` health sections in ``Database.health()``'s
    shape: healthy only while every shard is, summed counts, the worst
    streak, backlog and fsync age; ``None`` with logging disabled."""
    if not wals:
        return None

    def worst(key: str):
        return max((w[key] for w in wals if w[key] is not None), default=None)

    reasons = [w["degraded_reason"] for w in wals if w["degraded_reason"]]
    return {
        "healthy": all(w["healthy"] for w in wals),
        "flush_failures": sum(w["flush_failures"] for w in wals),
        "consecutive_flush_failures": worst("consecutive_flush_failures"),
        "pending": sum(w["pending"] for w in wals),
        "backlog": worst("backlog"),
        "last_fsync_age_seconds": worst("last_fsync_age_seconds"),
        "degraded_reason": reasons[0] if reasons else None,
    }
