"""The block transformer: orchestrating the two-phase pipeline (Fig. 8).

``process_queue`` pulls cooled blocks off the access observer's queue,
groups them by table into compaction groups, and runs Phase 1 (compaction).
Following the race-avoidance protocol of Section 4.3, each block's flag is
set to COOLING *after* the shuffle but *before* the compaction transaction
commits; the group then waits in ``freeze_pending`` until the GC has pruned
the compaction transaction's own version records — the signal that every
transaction that overlapped it has ended.  ``process_freeze_pending`` then
takes the short exclusive FREEZING section, gathers (or dictionary-
compresses), builds the block's Arrow record batch once for every later
reader, and marks blocks FROZEN.

Also implemented here are the two baselines of Section 6.2:
``snapshot_transform`` (copy the whole block through a transactional read,
tuple by tuple) and ``inplace_transform`` (do everything as transactional
updates).  They exist for Figures 12 and 13 only.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Literal

from repro.fault.crashpoints import crash_point
from repro.gc_engine.collector import GarbageCollector
from repro.obs import trace
from repro.obs.recorder import Recorder, get_recorder
from repro.obs.registry import STATE, MetricRegistry
from repro.storage.constants import BlockState
from repro.storage.data_table import DataTable, rowwise_scan
from repro.transform.access_observer import AccessObserver
from repro.transform.arrow_view import frozen_batch, rows_to_record_batch
from repro.transform.compaction import (
    CompactionPlan,
    execute_compaction,
    plan_compaction,
    plan_compaction_optimal,
)
from repro.transform.dictionary import dictionary_compress_block
from repro.transform.gather import gather_block

if TYPE_CHECKING:
    from repro.storage.block import RawBlock
    from repro.txn.manager import TransactionManager


@dataclass
class TransformStats:
    """Cumulative pipeline counters (Figures 10b, 12, 13, 14)."""

    groups_attempted: int = 0
    groups_compacted: int = 0
    groups_aborted: int = 0
    tuples_moved: int = 0
    blocks_frozen: int = 0
    blocks_freed: int = 0
    freeze_retries: int = 0
    freezes_preempted: int = 0
    compaction_write_set_ops: int = 0
    compaction_seconds: float = 0.0
    gather_seconds: float = 0.0


@dataclass
class GroupResult:
    """Outcome of one compaction-group pass."""

    plan: CompactionPlan
    compacted: bool
    frozen_later: list["RawBlock"] = field(default_factory=list)


class BlockTransformer:
    """Runs the hot→cold pipeline for one DBMS instance."""

    def __init__(
        self,
        txn_manager: "TransactionManager",
        gc: GarbageCollector,
        observer: AccessObserver,
        compaction_group_size: int = 50,
        cold_format: Literal["gather", "dictionary"] = "gather",
        optimal_compaction: bool = False,
        group_policy=None,
        registry: MetricRegistry | None = None,
        recorder: Recorder | None = None,
    ) -> None:
        self.txn_manager = txn_manager
        self.gc = gc
        self.observer = observer
        self.recorder = recorder if recorder is not None else get_recorder()
        self.compaction_group_size = compaction_group_size
        #: Group-formation policy; defaults to fixed-size chunks (the
        #: paper's evaluated configuration).  See transform/policy.py.
        if group_policy is None:
            from repro.transform.policy import FixedGroupPolicy

            group_policy = FixedGroupPolicy(compaction_group_size)
        self.group_policy = group_policy
        self.cold_format = cold_format
        self.optimal_compaction = optimal_compaction
        self.stats = TransformStats()
        self._stats_lock = threading.Lock()
        #: (table, block) pairs compacted and awaiting the freeze attempt.
        self.freeze_pending: list[tuple["DataTable", "RawBlock"]] = []
        self._pending_lock = threading.Lock()
        self.registry = registry if registry is not None else MetricRegistry()
        reg = self.registry
        self._m_groups_compacted = reg.counter(
            "transform.groups_compacted_total", "compaction groups committed"
        )
        self._m_groups_aborted = reg.counter(
            "transform.groups_aborted_total", "compaction groups lost to conflicts"
        )
        self._m_tuples_moved = reg.counter(
            "transform.tuples_moved_total", "tuples relocated by compaction"
        )
        self._m_blocks_frozen = reg.counter(
            "transform.blocks_frozen_total", "blocks reaching FROZEN"
        )
        self._m_blocks_freed = reg.counter(
            "transform.blocks_freed_total", "emptied blocks returned to the store"
        )
        self._m_freezes_preempted = reg.counter(
            "transform.freezes_preempted_total", "freeze attempts bounced by writers"
        )
        self._m_freeze_retries = reg.counter(
            "transform.freeze_retries_total", "freeze attempts deferred to next pass"
        )
        self._m_compaction_seconds = reg.histogram(
            "transform.compaction_seconds", "phase-1 duration per compaction group"
        )
        self._m_gather_seconds = reg.histogram(
            "transform.gather_seconds", "phase-2 gather duration per block"
        )
        self._m_dictionary_seconds = reg.histogram(
            "transform.dictionary_seconds", "phase-2 dictionary duration per block"
        )
        reg.gauge(
            "transform.queue_depth",
            "cooled blocks awaiting transformation",
            callback=lambda: len(self.observer.queue),
        )
        reg.gauge(
            "transform.freeze_pending",
            "compacted blocks awaiting the freeze attempt",
            callback=lambda: len(self.freeze_pending),
        )

    # ------------------------------------------------------------------ #
    # phase 1: drain queue, compact groups                                #
    # ------------------------------------------------------------------ #

    def process_queue(self) -> list[GroupResult]:
        """Compact every queued block, grouped per table by the policy."""
        per_table: dict[int, tuple["DataTable", list["RawBlock"]]] = {}
        for table, block in self.observer.queue.drain():
            per_table.setdefault(id(table), (table, []))[1].append(block)
        results = []
        for table, blocks in per_table.values():
            for group in self.group_policy.form_groups(blocks):
                results.append(self.transform_group(table, group))
        return results

    def transform_group(
        self, table: "DataTable", blocks: list["RawBlock"]
    ) -> GroupResult:
        """Run Phase 1 on one compaction group."""
        with self._stats_lock:
            self.stats.groups_attempted += 1
        blocks = [b for b in blocks if b.state is BlockState.HOT]
        planner = plan_compaction_optimal if self.optimal_compaction else plan_compaction
        began = time.perf_counter()
        with trace.span("transform.compaction"):
            plan = planner(blocks) if blocks else CompactionPlan(blocks=[])
            if not blocks:
                return GroupResult(plan, compacted=False)
            txn = execute_compaction(self.txn_manager, table, plan)
            if txn is None:
                with self._stats_lock:
                    self.stats.groups_aborted += 1
                self._m_groups_aborted.inc()
                return GroupResult(plan, compacted=False)
            # Flag flips happen before the commit: any transaction that slips a
            # write past the COOLING check must overlap this transaction, so the
            # GC cannot prune our records until it ends — the freeze attempt's
            # version-pointer scan will see the interloper (Figure 9's fix).
            keep = plan.filled_blocks + (
                [plan.partial_block] if plan.partial_block is not None else []
            )
            cooled = [
                b for b in keep if b.compare_and_swap_state(BlockState.HOT, BlockState.COOLING)
            ]
            commit_ts = self.txn_manager.commit(txn)
        elapsed = time.perf_counter() - began
        with self._stats_lock:
            self.stats.groups_compacted += 1
            self.stats.tuples_moved += plan.movement_count
            self.stats.compaction_write_set_ops += len(txn.undo_buffer)
            self.stats.compaction_seconds += elapsed
        if STATE.enabled:
            self._m_groups_compacted.inc()
            self._m_tuples_moved.inc(plan.movement_count)
            self._m_compaction_seconds.observe(elapsed)
            epoch = self.gc.epoch
            for block in cooled:
                # HOT → COOLING, with the heat statistics that justified it.
                self.recorder.record(
                    "block.cooling",
                    block_id=block.block_id,
                    table=table.name,
                    last_modified_epoch=block.last_modified_epoch,
                    gc_epoch=epoch,
                    idle_epochs=epoch - block.last_modified_epoch,
                )
            self.recorder.record(
                "transform.compacted",
                table=table.name,
                blocks=len(plan.blocks),
                tuples_moved=plan.movement_count,
                emptied=len(plan.empty_blocks),
                duration_seconds=elapsed,
            )
        for block in plan.empty_blocks:
            self._schedule_block_release(table, block, commit_ts)
        with self._pending_lock:
            self.freeze_pending.extend((table, b) for b in cooled)
        return GroupResult(plan, compacted=True, frozen_later=cooled)

    def _schedule_block_release(
        self, table: "DataTable", block: "RawBlock", commit_ts: int
    ) -> None:
        """Free an emptied block once no snapshot can still read it."""

        def _release() -> None:
            if block.is_empty() and block.block_id in table._blocks_by_id:
                table.drop_block(block)
                self.stats.blocks_freed += 1
                self._m_blocks_freed.inc()

        self.gc.deferred.register(commit_ts, _release)

    # ------------------------------------------------------------------ #
    # phase 2: freeze compacted blocks                                    #
    # ------------------------------------------------------------------ #

    def process_freeze_pending(self) -> int:
        """Attempt the gather on every block waiting since compaction.

        Returns the number of blocks frozen this pass.  Blocks whose
        version-pointer scan still finds records (the compaction records
        themselves, or an interloping writer's) stay pending; blocks a user
        transaction preempted back to HOT are abandoned to be re-observed.
        """
        frozen = 0
        still_pending: list[tuple["DataTable", "RawBlock"]] = []
        with self._pending_lock:
            pending, self.freeze_pending = self.freeze_pending, []
        for table, block in pending:
            if block.state is not BlockState.COOLING:
                self.stats.freezes_preempted += 1
                self._m_freezes_preempted.inc()
                self._record_preempted(table, block, "left_cooling")
                continue
            if block.has_active_versions():
                self.stats.freeze_retries += 1
                self._m_freeze_retries.inc()
                self.recorder.record(
                    "block.freeze_retry", block_id=block.block_id, table=table.name
                )
                still_pending.append((table, block))
                continue
            if not block.compare_and_swap_state(BlockState.COOLING, BlockState.FREEZING):
                self.stats.freezes_preempted += 1
                self._m_freezes_preempted.inc()
                self._record_preempted(table, block, "cas_lost")
                continue
            self.recorder.record(
                "block.freezing",
                block_id=block.block_id,
                table=table.name,
                gc_epoch=self.gc.epoch,
            )
            if block.has_active_versions():
                # An interloper slipped in between scan and CAS; back off.
                block.set_state(BlockState.HOT)
                self.stats.freezes_preempted += 1
                self._m_freezes_preempted.inc()
                self._record_preempted(table, block, "interloper")
                continue
            began = time.perf_counter()
            unlink_ts = self.txn_manager.timestamps.checkpoint()
            defer = lambda action, ts=unlink_ts: self.gc.deferred.register(ts, action)
            crash_point("transform.gather")
            if self.cold_format == "dictionary":
                with trace.span("transform.dictionary"):
                    dictionary_compress_block(block, defer)
            else:
                with trace.span("transform.gather"):
                    gather_block(block, defer)
            block.frozen_at = self.txn_manager.timestamps.checkpoint()
            # Built once here, under exclusive access; every frozen reader
            # reuses it until the next reheat.
            frozen_batch(block)
            block.set_state(BlockState.FROZEN)
            elapsed = time.perf_counter() - began
            self.stats.gather_seconds += elapsed
            self.stats.blocks_frozen += 1
            if STATE.enabled:
                self._m_blocks_frozen.inc()
                if self.cold_format == "dictionary":
                    self._m_dictionary_seconds.observe(elapsed)
                else:
                    self._m_gather_seconds.observe(elapsed)
                self.recorder.record(
                    "block.frozen",
                    block_id=block.block_id,
                    table=table.name,
                    format=self.cold_format,
                    frozen_at=block.frozen_at,
                    duration_seconds=elapsed,
                )
            frozen += 1
        with self._pending_lock:
            self.freeze_pending = still_pending + self.freeze_pending
        return frozen

    def _record_preempted(self, table: "DataTable", block: "RawBlock", why: str) -> None:
        self.recorder.record(
            "block.freeze_preempted",
            block_id=block.block_id,
            table=table.name,
            reason=why,
            state=block.state.name,
        )

    def run_pass(self) -> int:
        """One full pipeline turn: GC feeds the queue, compaction runs, GC
        prunes the compaction records, freezes complete.  Returns blocks
        frozen.  (A deployment runs these pieces on background threads; the
        sequential form is deterministic for tests and benchmarks.)"""
        self.gc.run()
        self.process_queue()
        self.gc.run()
        frozen = self.process_freeze_pending()
        self.gc.run()
        return frozen


# ---------------------------------------------------------------------- #
# baselines (Section 6.2)                                                 #
# ---------------------------------------------------------------------- #


def snapshot_transform(
    txn_manager: "TransactionManager", table: "DataTable", block: "RawBlock"
):
    """Baseline 1: copy a transactional snapshot into fresh Arrow buffers.

    Every live tuple is read through the Data Table API and appended to
    builders — simple, but it copies the whole block and (because the copy
    lives at new addresses) would invalidate every index entry, the cost
    Figure 13 charges it for.  This is only the transformation baseline of
    Figures 12 and 13; readers of hot blocks (exports, scans) use
    :func:`repro.transform.arrow_view.materialize_hot` instead.
    """
    txn = txn_manager.begin()
    rows = [row.to_dict() for _, row in rowwise_scan(table, txn, blocks=[block])]
    txn_manager.commit(txn)
    return rows_to_record_batch(table.layout, rows)


def inplace_transform(
    txn_manager: "TransactionManager",
    table: "DataTable",
    blocks: list["RawBlock"],
) -> bool:
    """Baseline 2: perform the entire transformation transactionally.

    Movements *and* the varlen rewrites run as ordinary updates, so every
    touched tuple pays version maintenance (undo + redo + chain install).
    Returns ``False`` if a conflict aborted the attempt.
    """
    plan = plan_compaction(blocks)
    txn = execute_compaction(txn_manager, table, plan)
    if txn is None:
        return False
    varlen_ids = table.layout.varlen_column_ids()
    blocks = plan.filled_blocks + (
        [plan.partial_block] if plan.partial_block is not None else []
    )
    for slot, row in rowwise_scan(table, txn, varlen_ids, blocks):
        delta = row.to_dict()
        if delta and not table.update(txn, slot, delta):
            txn_manager.abort(txn)
            return False
    txn_manager.commit(txn)
    return True
