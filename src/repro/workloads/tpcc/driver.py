"""The TPC-C driver: mixed workload execution and throughput measurement.

Runs the standard transaction mix (clause 5.2.4 minimums: 45% NewOrder,
43% Payment, 4% each OrderStatus / Delivery / StockLevel) open-loop, with
optional worker threads (one warehouse per worker, as in Section 6.1) and
the maintenance pipeline (GC + transformation) interleaved the way the
paper dedicates background threads to it.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.storage.constants import BlockState
from repro.workloads.tpcc.loader import TpccLoader
from repro.workloads.tpcc.schema import COLD_TABLES, TpccConfig, create_tpcc_tables
from repro.workloads.tpcc.transactions import TpccTransactions

if TYPE_CHECKING:
    from repro.db import Database

#: The standard mix as cumulative thresholds.
MIX = (
    ("new_order", 0.45),
    ("payment", 0.88),
    ("order_status", 0.92),
    ("delivery", 0.96),
    ("stock_level", 1.00),
)


@dataclass
class TpccRun:
    """Results of one measured run."""

    seconds: float
    committed: int
    aborted: int
    per_profile: dict[str, int]
    block_states: dict[str, dict[str, int]]
    #: Conflict-abort resubmissions during the run (``workload.txn_retries_total``).
    retried: int = 0

    @property
    def throughput(self) -> float:
        """Committed transactions per second."""
        return self.committed / self.seconds if self.seconds else 0.0


class TpccDriver:
    """Loads and drives a TPC-C database."""

    def __init__(
        self,
        db: "Database",
        config: TpccConfig | None = None,
        seed: int | None = 0,
    ) -> None:
        self.db = db
        self.config = config or TpccConfig.small()
        self.seed = seed

    def setup(self) -> None:
        """Create tables/indexes and load the initial database."""
        create_tpcc_tables(self.db, self.config)
        TpccLoader(self.db, self.config, seed=self.seed).load()
        self.db.quiesce()

    def run(
        self,
        transactions_per_worker: int,
        workers: int = 1,
        maintenance_every: int = 0,
    ) -> TpccRun:
        """Execute the mix; returns the measured run.

        ``maintenance_every`` > 0 interleaves one transformation pipeline
        pass after that many transactions (per worker 0) — the sequential
        stand-in for the paper's dedicated transformation thread.
        """
        executors = [
            TpccTransactions(self.db, self.config, seed=(self.seed or 0) + 1000 + i)
            for i in range(workers)
        ]
        retries_before = int(
            self.db.obs.counter("workload.txn_retries_total").value
        )
        began = time.perf_counter()
        if workers == 1:
            self._worker_loop(executors[0], transactions_per_worker, maintenance_every, 1)
        else:
            threads = [
                threading.Thread(
                    target=self._worker_loop,
                    args=(
                        executors[i],
                        transactions_per_worker,
                        maintenance_every if i == 0 else 0,
                        (i % self.config.warehouses) + 1,
                    ),
                )
                for i in range(workers)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        elapsed = time.perf_counter() - began
        committed: dict[str, int] = {}
        aborted = 0
        for executor in executors:
            for profile, count in executor.counters.committed.items():
                committed[profile] = committed.get(profile, 0) + count
            aborted += sum(executor.counters.aborted.values())
        return TpccRun(
            seconds=elapsed,
            committed=sum(committed.values()),
            aborted=aborted,
            per_profile=committed,
            block_states=self.block_state_report(),
            retried=int(
                self.db.obs.counter("workload.txn_retries_total").value
            )
            - retries_before,
        )

    def _worker_loop(
        self,
        executor: TpccTransactions,
        count: int,
        maintenance_every: int,
        home_warehouse: int,
    ) -> None:
        for i in range(count):
            pick = executor.rand.random()
            for profile, threshold in MIX:
                if pick <= threshold:
                    getattr(executor, profile)(home_warehouse)
                    break
            if maintenance_every and (i + 1) % maintenance_every == 0:
                self.db.run_maintenance()

    def block_state_report(self) -> dict[str, dict[str, int]]:
        """Block-state histogram per cold table (Figure 10b's metric)."""
        report = {}
        for name in COLD_TABLES:
            states = self.db.catalog.table(name).block_states()
            report[name] = {state.name: count for state, count in states.items()}
        return report

    def cold_coverage(self) -> float:
        """Fraction of cold-table blocks in COOLING or FROZEN state."""
        total = advanced = 0
        for name in COLD_TABLES:
            for state, count in self.db.catalog.table(name).block_states().items():
                total += count
                if state in (BlockState.COOLING, BlockState.FROZEN):
                    advanced += count
        return advanced / total if total else 0.0
