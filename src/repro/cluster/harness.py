"""Cluster crash torture: seeded schedules against a sharded engine.

The single-node harness (:mod:`repro.fault.harness`) proves one WAL
recovers a prefix of the commit order.  This harness proves the stronger
cluster property: across N independent WALs plus a coordinator decision
log, *no schedule may commit a transaction on one shard and abort it on
another*.  One :func:`run_cluster_schedule` call is one cluster lifetime:

1. Build a :class:`~repro.cluster.ShardedDatabase` whose shard WALs and
   coordinator log are :class:`~repro.fault.device.FaultyDevice` wrappers,
   then run a workload mixing single-shard and cross-shard (2PC)
   transactions while tracking, per transaction, exactly which rows it
   wrote on which shards and whether its durability ack fired.
2. Die at a seeded fault — a crash point inside the 2PC protocol
   (``coordinator.prepare`` / ``coordinator.decide`` / ``participant.ack``),
   a crash point inside any shard's WAL flush, or a device fault on one
   chosen shard log or the coordinator log.
3. "Reboot": take every device's crash image (fsynced prefix plus a seeded
   torn tail, drawn independently per device — the disks did not fail in
   sympathy), replay them into a fresh cluster with presumed-abort
   in-doubt resolution, and check the invariants.

Invariants checked, in increasing strength:

- **per-shard prefix**: on each shard, the recovered transactions are a
  prefix of that shard's commit order (the single-node guarantee);
- **durability**: every acked transaction is fully recovered;
- **no resurrection**: a transaction aborted by 2PC is recovered nowhere;
- **cross-shard atomicity**: every transaction — committed, aborted, or
  in flight at the crash — is either recovered on *all* shards it wrote
  or on *none* of them;
- **exact state**: each shard's recovered rows equal the effects of
  exactly the recovered transaction set, in order.

``tpcc`` mode runs the same lifecycle over TPC-C sharded by home
warehouse (``TPCC_SHARD_KEYS``) at ``warehouses = n_shards``, where
remote payments and remote new-order lines make real cross-shard 2PC
traffic, and additionally requires the spec's consistency conditions
(clause 3.3.2) to hold on every shard after recovery.

Everything derives from one integer seed; a red run reproduces from its
report alone.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any

from repro.fault.crashpoints import CrashPointInjector, armed
from repro.fault.device import FaultSchedule, FaultSpec, FaultyDevice, SimulatedCrash

#: Crash sites a cluster schedule can draw.  The first three live inside
#: the 2PC protocol itself; the device sites fault one chosen shard WAL
#: or the coordinator log; the WAL-flush sites fire in whichever shard
#: flushes next.
CLUSTER_CRASH_SITES = (
    "coordinator.prepare",
    "coordinator.decide",
    "participant.ack",
    "device.torn_write",
    "device.crash_fsync",
    "coordinator.io_error",
    "wal.flush.pre_fsync",
    "wal.flush.post_fsync",
)

_INJECTOR_SITES = frozenset(
    {
        "coordinator.prepare",
        "coordinator.decide",
        "participant.ack",
        "wal.flush.pre_fsync",
        "wal.flush.post_fsync",
    }
)


@dataclass
class ClusterScheduleReport:
    """Outcome of one seeded cluster schedule; ``ok`` is the verdict."""

    seed: int
    mode: str  # "kv" | "tpcc"
    n_shards: int
    crash_site: str | None
    fault_target: str | None
    crashed: bool
    txns_committed: int
    txns_cross_shard: int
    txns_acked: int
    txns_recovered: int
    in_doubt: int
    resolved_commit: int
    resolved_abort: int
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self) -> str:
        verdict = "ok" if self.ok else "FAIL " + "; ".join(self.violations)
        return (
            f"seed={self.seed:>5} mode={self.mode:<5} shards={self.n_shards} "
            f"site={self.crash_site or '-':<22} "
            f"target={self.fault_target or '-':<11} crashed={int(self.crashed)} "
            f"committed={self.txns_committed:>3} cross={self.txns_cross_shard:>3} "
            f"acked={self.txns_acked:>3} recovered={self.txns_recovered:>3} "
            f"indoubt={self.in_doubt}({self.resolved_commit}c/{self.resolved_abort}a) "
            f"{verdict}"
        )


# ---------------------------------------------------------------------- #
# schedule construction                                                   #
# ---------------------------------------------------------------------- #


def _pick_cluster_plan(rng: random.Random, n_shards: int, txns: int) -> dict:
    """Everything a cluster schedule decides, drawn from the seed's RNG."""
    plan = {
        "flush_every": rng.randrange(1, 5),
        "maintenance_every": rng.randrange(5, 13),
        "block_size": rng.choice((1 << 12, 1 << 13)),
        #: Fraction of workload transactions that deliberately span shards.
        "cross_rate": 0.3 + rng.random() * 0.4,
        "crash_site": None,
        "crash_skip": 0,
        "device_specs": [],
        #: ``"shard:<i>"`` or ``"coordinator"`` for device sites.
        "fault_target": None,
    }
    site = CLUSTER_CRASH_SITES[rng.randrange(len(CLUSTER_CRASH_SITES))]
    plan["crash_site"] = site
    targets = [f"shard:{i}" for i in range(n_shards)] + ["coordinator"]
    if site == "device.torn_write":
        plan["device_specs"] = [
            FaultSpec("write", rng.randrange(2, 2 * txns), "torn_write")
        ]
        plan["fault_target"] = targets[rng.randrange(len(targets))]
    elif site == "device.crash_fsync":
        plan["device_specs"] = [FaultSpec("fsync", rng.randrange(1, txns + 1), "crash")]
        plan["fault_target"] = targets[rng.randrange(len(targets))]
    elif site == "coordinator.io_error":
        # A recoverable write error on the decision log: log_decision must
        # rewind the partial record and fall back to a clean abort, so the
        # run continues and ends clean.
        plan["device_specs"] = [
            FaultSpec("write", rng.randrange(1, max(txns // 3, 2)), "io_error")
        ]
        plan["fault_target"] = "coordinator"
    else:
        plan["crash_skip"] = rng.randrange(0, max(3, txns // 2))
    return plan


def _make_injector(plan: dict) -> CrashPointInjector:
    site = plan["crash_site"]
    if site in _INJECTOR_SITES:
        return CrashPointInjector(site, skip=plan["crash_skip"])
    return CrashPointInjector("<never>")


# ---------------------------------------------------------------------- #
# the KV workload: exact per-shard effect tracking                        #
# ---------------------------------------------------------------------- #


@dataclass
class _ClusterTxn:
    """One workload transaction's footprint, for post-crash verification."""

    index: int
    shards: tuple[int, ...]
    #: Shard id → the sentinel row id inserted there (routes to that shard).
    sentinels: dict[int, int] = field(default_factory=dict)
    #: Shard id → [(op, row id, payload, seq)] in execution order.
    ops: dict[int, list[tuple[str, int, str | None, int | None]]] = field(
        default_factory=dict
    )
    #: Sentinel id → ShardSlot, merged into the victim pool on commit.
    slot_map: dict[int, Any] = field(default_factory=dict)
    outcome: str = "pending"  # "committed" | "aborted" | "in_doubt" | "pending"
    acked: bool = False
    #: Shard id → recovered?, filled by verification.
    present: dict[int, bool] = field(default_factory=dict)

    @property
    def cross_shard(self) -> bool:
        return len(self.shards) > 1


def _build_kv_cluster(n_shards: int, block_size: int, **kwargs: Any):
    from repro import INT64, UTF8, ColumnSpec
    from repro.cluster import ShardedDatabase

    cluster = ShardedDatabase(n_shards=n_shards, cold_threshold_epochs=1, **kwargs)
    cluster.create_table(
        "kv",
        [ColumnSpec("id", INT64), ColumnSpec("payload", UTF8), ColumnSpec("seq", INT64)],
        block_size=block_size,
        shard_key="id",
    )
    return cluster


def _kv_cluster_txn(
    cluster,
    rng: random.Random,
    plan: dict,
    index: int,
    next_row: int,
    slots: dict[int, Any],
    records: list[_ClusterTxn],
) -> tuple[_ClusterTxn, int]:
    """Build and run one workload transaction; returns its record.

    Every transaction inserts one fresh *sentinel* row on each shard it
    touches — ids are constructed as ``row * n + shard`` so the integer
    router places them deterministically — and may additionally update
    previously committed rows on those same shards.  Sentinels double as
    the presence oracle after recovery, so they are never deleted.
    """
    n = cluster.n_shards
    if n > 1 and rng.random() < plan["cross_rate"]:
        k = rng.randrange(2, min(3, n) + 1)
    else:
        k = 1
    shards = tuple(sorted(rng.sample(range(n), k)))
    rec = _ClusterTxn(index=index, shards=shards)
    # Registered before any engine call: a SimulatedCrash mid-commit must
    # still leave the in-flight transaction visible to verification (its
    # effects may legitimately be recovered — e.g. a decision forced just
    # before the crash).
    records.append(rec)

    from repro.errors import (
        CoordinationAbort,
        DegradedError,
        TransactionAborted,
        TwoPhaseInDoubt,
    )
    from repro.txn.context import TxnState

    table = cluster.catalog.table("kv")
    dtxn = cluster.begin()
    try:
        for s in shards:
            row_id = next_row * n + s
            next_row += 1
            payload = f"v{index}-" + "x" * rng.randrange(0, 30)
            rec.slot_map[row_id] = table.insert(
                dtxn, {0: row_id, 1: payload, 2: index}
            )
            rec.sentinels[s] = row_id
            rec.ops.setdefault(s, []).append(("insert", row_id, payload, index))
        shard_set = set(shards)
        victims = [rid for rid in slots if rid % n in shard_set]
        if victims and rng.random() < 0.45:
            victim = victims[rng.randrange(len(victims))]
            update_payload = f"u{index}-" + "y" * rng.randrange(0, 15)
            if table.update(dtxn, slots[victim], {1: update_payload, 2: index}):
                rec.ops.setdefault(victim % n, []).append(
                    ("update", victim, update_payload, index)
                )

        def _on_durable(rec=rec, dtxn=dtxn) -> None:
            if dtxn.state is TxnState.COMMITTED:
                rec.acked = True

        dtxn.on_durable(_on_durable)
        cluster.commit(dtxn)
        rec.outcome = "committed"
        slots.update(rec.slot_map)
    except TwoPhaseInDoubt:
        rec.outcome = "in_doubt"
    except DegradedError:
        rec.outcome = "aborted"
    except (CoordinationAbort, TransactionAborted):
        rec.outcome = "aborted"
    return rec, next_row


def run_cluster_schedule(
    seed: int, mode: str = "kv", txns: int = 40, n_shards: int | None = None
) -> ClusterScheduleReport:
    """Run one seeded cluster lifetime; returns its report."""
    if mode == "tpcc":
        return _run_cluster_tpcc_schedule(
            seed, txns=txns, n_shards=n_shards or (2 if seed % 2 == 0 else 4)
        )
    rng = random.Random(seed)
    n = n_shards or rng.choice((2, 3, 4))
    plan = _pick_cluster_plan(rng, n, txns)

    def specs_for(target: str) -> list[FaultSpec]:
        return plan["device_specs"] if plan["fault_target"] == target else []

    shard_devices = [
        FaultyDevice(schedule=FaultSchedule(specs_for(f"shard:{i}"), seed=seed + i))
        for i in range(n)
    ]
    coord_device = FaultyDevice(
        schedule=FaultSchedule(specs_for("coordinator"), seed=seed + n)
    )
    cluster = _build_kv_cluster(
        n,
        plan["block_size"],
        log_devices=shard_devices,
        coordinator_device=coord_device,
    )
    for shard in cluster.shards:
        shard.log_manager.synchronous = False

    records: list[_ClusterTxn] = []
    slots: dict[int, Any] = {}
    next_row = 0
    crashed = False
    with armed(_make_injector(plan)):
        try:
            for i in range(txns):
                rec, next_row = _kv_cluster_txn(
                    cluster, rng, plan, i, next_row, slots, records
                )
                if rec.outcome == "in_doubt":
                    break  # the coordinator log is poisoned; stop writing
                if (i + 1) % plan["flush_every"] == 0:
                    cluster.flush_all()
                if (i + 1) % plan["maintenance_every"] == 0:
                    cluster.run_maintenance()
            cluster.flush_all()
        except SimulatedCrash:
            crashed = True
        except OSError:
            crashed = True

    images = [
        d.crash_image(rng) if crashed else d.durable_image() for d in shard_devices
    ]
    coord_image = (
        coord_device.crash_image(rng) if crashed else coord_device.durable_image()
    )
    return _verify_cluster_kv(
        seed, n, plan, crashed, records, images, coord_image
    )


def _verify_cluster_kv(
    seed: int,
    n: int,
    plan: dict,
    crashed: bool,
    records: list[_ClusterTxn],
    images: list[bytes],
    coord_image: bytes,
) -> ClusterScheduleReport:
    violations: list[str] = []
    stats = {"transactions_replayed": 0, "in_doubt": 0, "resolved_commit": 0,
             "resolved_abort": 0}
    fresh = _build_kv_cluster(n, plan["block_size"])
    try:
        stats = fresh.recover_from(images, coord_image, tolerate_torn_tail=True)
    except Exception as exc:
        violations.append(f"cluster recovery raised {exc!r}")

    actual: list[dict[int, tuple[str, int]]] = []
    if not violations:
        with fresh.transaction() as reader:
            actual = [
                {row.get(0): (row.get(1), row.get(2)) for _, row in table.scan(local)}
                for local, table in fresh.partitions("kv", reader)
            ]

        for rec in records:
            rec.present = {
                s: sentinel in actual[s] for s, sentinel in rec.sentinels.items()
            }
            # THE cluster invariant: all-or-nothing across shards, for
            # every transaction regardless of how its lifetime ended.
            if len(set(rec.present.values())) > 1:
                violations.append(
                    f"txn {rec.index} atomicity violated across shards: "
                    f"{rec.present} (outcome={rec.outcome})"
                )
            recovered = all(rec.present.values())
            if rec.outcome == "aborted" and recovered:
                violations.append(f"aborted txn {rec.index} resurrected by recovery")
            if rec.acked and not recovered:
                violations.append(f"acked txn {rec.index} lost by recovery")
            if rec.outcome == "committed" and not crashed and not recovered:
                violations.append(
                    f"clean shutdown lost committed txn {rec.index}"
                )

    if not violations:
        # Per-shard prefix: once a committed transaction is missing on a
        # shard, no later committed transaction may be present there.
        for s in range(n):
            lost_from: int | None = None
            for rec in records:
                if s not in rec.shards or rec.outcome != "committed":
                    continue
                if not rec.present[s]:
                    if lost_from is None:
                        lost_from = rec.index
                elif lost_from is not None:
                    violations.append(
                        f"shard {s}: txn {rec.index} recovered after "
                        f"txn {lost_from} was lost (not a prefix)"
                    )
                    break

        # Exact state: each shard's rows are the effects of exactly the
        # recovered transactions, applied in commit order.
        for s in range(n):
            expected: dict[int, tuple[str, int]] = {}
            for rec in records:
                if not rec.present.get(s):
                    continue
                for op, row_id, payload, seq in rec.ops.get(s, ()):
                    if op == "delete":
                        expected.pop(row_id, None)
                    else:
                        expected[row_id] = (payload, seq)  # type: ignore[assignment]
            if expected != actual[s]:
                extra = sorted(set(actual[s]) - set(expected))
                lost = sorted(set(expected) - set(actual[s]))
                violations.append(
                    f"shard {s} state diverges: extra={extra[:5]} lost={lost[:5]}"
                )

    committed = [r for r in records if r.outcome == "committed"]
    return ClusterScheduleReport(
        seed=seed,
        mode="kv",
        n_shards=n,
        crash_site=plan["crash_site"],
        fault_target=plan["fault_target"],
        crashed=crashed,
        txns_committed=len(committed),
        txns_cross_shard=sum(1 for r in committed if r.cross_shard),
        txns_acked=sum(1 for r in records if r.acked),
        txns_recovered=stats["transactions_replayed"],
        in_doubt=stats["in_doubt"],
        resolved_commit=stats["resolved_commit"],
        resolved_abort=stats["resolved_abort"],
        violations=violations,
    )


# ---------------------------------------------------------------------- #
# the TPC-C lifetime                                                      #
# ---------------------------------------------------------------------- #


def _cluster_tpcc_config(n_shards: int):
    from repro.workloads.tpcc.schema import TpccConfig

    return TpccConfig(
        warehouses=n_shards,
        districts_per_warehouse=2,
        customers_per_district=12,
        items=40,
        initial_orders_per_district=8,
        stock_per_warehouse=40,
        block_size=1 << 12,
    )


def _run_cluster_tpcc_schedule(
    seed: int, txns: int = 25, n_shards: int = 2
) -> ClusterScheduleReport:
    """One TPC-C cluster lifetime: load sharded by home warehouse, run the
    mix (remote payments / new-order lines are cross-shard 2PC), crash,
    recover, and check clause 3.3.2 consistency on every shard."""
    from repro.cluster import ShardedDatabase
    from repro.errors import DegradedError, TwoPhaseInDoubt
    from repro.wal.records import decode_stream
    from repro.workloads.tpcc.consistency import check_consistency
    from repro.workloads.tpcc.driver import MIX, TpccDriver
    from repro.workloads.tpcc.schema import TPCC_SHARD_KEYS, create_tpcc_tables
    from repro.workloads.tpcc.transactions import TpccTransactions

    rng = random.Random(seed)
    plan = _pick_cluster_plan(rng, n_shards, txns)
    config = _cluster_tpcc_config(n_shards)
    cluster = ShardedDatabase(
        n_shards=n_shards, shard_keys=TPCC_SHARD_KEYS, cold_threshold_epochs=1
    )
    driver = TpccDriver(cluster, config=config, seed=seed)
    driver.setup()  # synchronous clean devices: the load is fully durable
    cluster.flush_all()

    # Swap the (now fully synced) clean devices for faulty wrappers so the
    # schedule's op indices count from the start of the measured mix.
    def wrap(base, specs, salt: int) -> FaultyDevice:
        device = FaultyDevice(base=base, schedule=FaultSchedule(specs, seed=seed + salt))
        device.synced_len = device.base.tell()
        return device

    shard_devices = []
    for i, shard in enumerate(cluster.shards):
        specs = plan["device_specs"] if plan["fault_target"] == f"shard:{i}" else []
        shard.log_manager.device = wrap(shard.log_manager.device, specs, i)
        shard.log_manager.synchronous = False
        shard_devices.append(shard.log_manager.device)
    cspecs = plan["device_specs"] if plan["fault_target"] == "coordinator" else []
    coord_device = wrap(cluster.coordinator_log.device, cspecs, n_shards)
    cluster.coordinator_log.device = coord_device
    base_recovered = sum(
        len(decode_stream(d.durable_image(), tolerate_torn_tail=True))
        for d in shard_devices
    )

    executor = TpccTransactions(cluster, config, seed=seed + 1000)
    cross_before = int(cluster.obs.counter("cluster.txn_cross_shard_total").value)
    crashed = False
    with armed(_make_injector(plan)):
        try:
            for i in range(txns):
                pick = executor.rand.random()
                for profile, threshold in MIX:
                    if pick <= threshold:
                        getattr(executor, profile)(None)
                        break
                if (i + 1) % plan["flush_every"] == 0:
                    cluster.flush_all()
                if (i + 1) % plan["maintenance_every"] == 0:
                    cluster.run_maintenance()
            cluster.flush_all()
        except SimulatedCrash:
            crashed = True
        except OSError:
            crashed = True
        except (TwoPhaseInDoubt, DegradedError):
            # The cluster is impaired but alive; stop the mix and verify
            # that recovery resolves whatever was left prepared.
            crashed = True

    images = [
        d.crash_image(rng) if crashed else d.durable_image() for d in shard_devices
    ]
    coord_image = (
        coord_device.crash_image(rng) if crashed else coord_device.durable_image()
    )

    violations: list[str] = []
    stats = {"transactions_replayed": 0, "in_doubt": 0, "resolved_commit": 0,
             "resolved_abort": 0}
    fresh = ShardedDatabase(
        n_shards=n_shards, shard_keys=TPCC_SHARD_KEYS, cold_threshold_epochs=1
    )
    create_tpcc_tables(fresh, config)
    try:
        stats = fresh.recover_from(images, coord_image, tolerate_torn_tail=True)
    except Exception as exc:
        violations.append(f"TPC-C cluster recovery raised {exc!r}")
    else:
        if stats["transactions_replayed"] < base_recovered:
            violations.append(
                f"recovery lost the durable load: "
                f"{stats['transactions_replayed']} < {base_recovered}"
            )
        mix_recovered = stats["transactions_replayed"] - base_recovered
        if mix_recovered < executor.acked_writes:
            violations.append(
                f"acked mix transactions lost: recovered {mix_recovered} "
                f"of {executor.acked_writes} acked"
            )
        for i, shard in enumerate(fresh.shards):
            for violation in check_consistency(shard).violations:
                violations.append(f"shard {i} consistency: {violation}")
        for violation in check_consistency(fresh).violations:
            violations.append(f"cluster consistency: {violation}")

    return ClusterScheduleReport(
        seed=seed,
        mode="tpcc",
        n_shards=n_shards,
        crash_site=plan["crash_site"],
        fault_target=plan["fault_target"],
        crashed=crashed,
        txns_committed=executor.counters.total_committed,
        txns_cross_shard=int(
            cluster.obs.counter("cluster.txn_cross_shard_total").value
        )
        - cross_before,
        txns_acked=executor.acked_writes,
        txns_recovered=stats["transactions_replayed"],
        in_doubt=stats["in_doubt"],
        resolved_commit=stats["resolved_commit"],
        resolved_abort=stats["resolved_abort"],
        violations=violations,
    )


# ---------------------------------------------------------------------- #
# the fleet runner                                                        #
# ---------------------------------------------------------------------- #


def run_cluster_torture(
    schedules: int = 20,
    seed: int = 0,
    txns: int = 40,
    tpcc_every: int = 5,
    verbose: bool = False,
) -> list[ClusterScheduleReport]:
    """Run ``schedules`` seeded cluster lifetimes; returns every report.

    Seeds are ``seed .. seed+schedules-1``.  Every ``tpcc_every``-th
    schedule runs the TPC-C mode (alternating 2 and 4 shards); the rest
    run the KV mode with a seeded shard count.
    """
    reports = []
    for i in range(schedules):
        s = seed + i
        mode = "tpcc" if tpcc_every and i % tpcc_every == tpcc_every - 1 else "kv"
        report = run_cluster_schedule(s, mode=mode, txns=txns)
        reports.append(report)
        if verbose or not report.ok:
            print(report)
    return reports
