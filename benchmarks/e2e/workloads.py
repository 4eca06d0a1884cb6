"""The four HTAP workloads: OLTP rounds with analytic trials between them.

Every workload has the same shape so that every end-to-end metric means
the same thing on each of them: ``load`` → rounds of (``oltp_round``,
``export_trial``, ``scan_trial``) → ``recover`` → ``verify``.  Inside a
round the garbage collector, the block transformer and the WAL flush run
*inline* on the driver thread every ``maintenance_every`` operations —
no background threads, so block-state transitions and every counter
repeat exactly for a given seed.  Maintenance time is inside the
throughput denominator and outside the per-transaction latency.

Why these four (the README has the long form):

- ``tpcc_mix`` — the paper's Fig. 10 setting.  Multi-statement,
  index-heavy transactions: ``index`` + ``storage`` + ``txn`` dominate,
  the transformer and the exporter do little.
- ``htap_moving_hotspot`` — one-op transactions on a key window that
  slides over a pre-frozen table.  The only workload where blocks cool,
  freeze, reheat and get compacted while it runs: ``transform``,
  ``gc_engine`` and ``wal`` dominate and per-op ``txn`` overhead shows.
- ``export_frozen`` — Fig. 15 at 100 % frozen.  Read-only transactions
  beside zero-copy exports and scans: ``arrowfmt``/``export``/``query``
  do the work and the write path does none, so a write-path gain that
  taxes frozen reads shows here.
- ``service_closedloop`` — the asyncio front door over real sockets with
  two blocking connections.  Protocol, admission and the durable ack
  dominate; engine-only gains should barely move it.
"""

from __future__ import annotations

import random
import threading
from time import perf_counter

from repro import FLOAT64, INT64, UTF8, ColumnSpec, Database
from repro.arrowfmt import ipc
from repro.export import flight
from repro.query.scan import TableScanner
from repro.storage.constants import BlockState
from repro.workloads.tpcc.consistency import check_consistency
from repro.workloads.tpcc.loader import TpccLoader
from repro.workloads.tpcc.schema import COLD_TABLES, TpccConfig, create_tpcc_tables
from repro.workloads.tpcc.transactions import TpccTransactions
from repro.workloads.ycsb import ZipfianGenerator

#: A round (its transactions, one export trial, one scan trial) is sized to
#: take about 1/ROUNDS_PER_SECOND seconds on the 2-core reference box, so
#: ``--seconds`` fixes the operation count, not a deadline: the same seed
#: and seconds always run the same operations.
ROUNDS_PER_SECOND = 2.25
MIN_ROUNDS = 3

#: An analytic trial loops over the table until it has run this long;
#: shorter trials are timer noise (see the PR 11 post-mortem in README).
TRIAL_MIN_SECONDS = 0.05

USERTABLE = [
    ColumnSpec("key", INT64),
    ColumnSpec("amount", FLOAT64),
    ColumnSpec("field0", UTF8),
]
KEY, AMOUNT, FIELD0 = 0, 1, 2


def rounds_for(seconds: float) -> int:
    return max(MIN_ROUNDS, round(seconds * ROUNDS_PER_SECOND))


def _field(rng: random.Random) -> str:
    """24 bytes: longer than the 12-byte inline limit, so it lives in the
    varlen heap while hot and in the gathered buffer once frozen."""
    return "%024x" % rng.getrandbits(96)


def _amount_sum(table, column: str) -> float:
    """Sum of the Arrow ``amount`` column of a received table."""
    return sum(
        float(batch.column(column).to_numpy().sum()) for batch in table.batches
    )


class Workload:
    """State, tallies and the in-process phases the four workloads share."""

    name = ""
    #: Table the export and scan trials read, and its summed column.
    table_name = "usertable"
    amount_column = "amount"
    #: Tables the set-up drives to FROZEN before the warm-up round.
    cold_tables: tuple[str, ...] = ("usertable",)
    maintenance_every = 500
    #: Transactions per round at ``--scale 1``.
    ops_per_round = 1000

    def __init__(self, seed: int, scale: float, tracer) -> None:
        self.seed = seed
        self.tracer = tracer
        self.rng = random.Random(seed)
        self.db = Database()
        # Group commit: commits enqueue, the maintenance tick flushes.
        self.db.log_manager.synchronous = False
        self.ops_per_round = max(20, int(self.ops_per_round * scale))
        self.total_ops = 0  # set by plan()
        self.op_index = 0
        self.latencies: list[float] = []
        self.oltp_seconds = 0.0
        self.maintenance_seconds = 0.0
        self.committed = 0
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        #: (megabytes, seconds) per export trial, (rows, seconds) per scan.
        self.exports: list[tuple[float, float]] = []
        self.scans: list[tuple[int, float]] = []
        self.export_serialize_seconds = 0.0
        self.export_client_seconds = 0.0
        self.export_frozen_blocks = 0
        self.export_materialized_blocks = 0
        self.frozen_fractions: list[float] = []
        self.scan_frozen = [0, 0.0]  # rows, seconds
        self.scan_hot = [0, 0.0]
        self.load_rows = 0
        self.load_seconds = 0.0
        #: The trial table and its primary-key index, set by load().
        self.table = None
        self.index = None
        self.sheds = 0
        self.errors = 0

    def plan(self, rounds: int) -> None:
        """Fix the length of the run (warm-up round included) before it
        starts; workloads whose key choice depends on progress read it."""
        self.total_ops = (rounds + 1) * self.ops_per_round

    def start_measuring(self) -> dict:
        """End of the warm-up round: forget its trials, return its totals
        (the measured phase is everything after them)."""
        del self.exports[:], self.scans[:], self.frozen_fractions[:]
        self.export_serialize_seconds = self.export_client_seconds = 0.0
        self.export_frozen_blocks = self.export_materialized_blocks = 0
        self.scan_frozen = [0, 0.0]
        self.scan_hot = [0, 0.0]
        return {
            "transactions": len(self.latencies),
            "oltp_seconds": self.oltp_seconds,
            "maintenance_seconds": self.maintenance_seconds,
            "committed": self.committed,
        }

    def check(self, what: str, ok: bool) -> bool:
        """Count one attempted operation or correctness check."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)
        return ok

    def close(self) -> None:
        pass

    def create_schema(self, db: Database) -> None:
        raise NotImplementedError

    def populate(self) -> None:
        raise NotImplementedError

    def transaction(self) -> bool:
        """Run one transaction; ``False`` means it failed."""
        raise NotImplementedError

    def load(self) -> None:
        began = perf_counter()
        self.create_schema(self.db)
        self.table = self.db.catalog.table(self.table_name)
        self.index = self.db.catalog.index(self.table_name, "pk")
        self.populate()
        self.db.quiesce()
        self.load_seconds = perf_counter() - began
        self.load_rows = self.db.metrics()["live_tuples"]
        for name in self.cold_tables:
            self.db.freeze_table(name)
        self.db.log_manager.flush()

    def maintain(self) -> None:
        began = perf_counter()
        self.db.run_maintenance()
        self.db.log_manager.flush()
        self.maintenance_seconds += perf_counter() - began

    def oltp_round(self) -> None:
        span = self.tracer.span
        latencies = self.latencies
        transaction = self.transaction
        every = self.maintenance_every
        failed = 0
        began = perf_counter()
        for index in range(self.op_index, self.op_index + self.ops_per_round):
            start = perf_counter()
            with span("workloads.txn", index):
                ok = transaction()
            latencies.append(perf_counter() - start)
            if not ok:
                failed += 1
            self.op_index = index + 1
            if (index + 1) % every == 0:
                self.maintain()
        self.oltp_seconds += perf_counter() - began
        self.attempted += self.ops_per_round
        self.committed += self.ops_per_round - failed
        if failed:
            self.failed += failed
            self.failures.append(f"{failed} transactions failed")

    def note_frozen_fraction(self) -> None:
        states = self.table.block_states()
        self.frozen_fractions.append(
            states[BlockState.FROZEN] / max(1, sum(states.values()))
        )

    def export_trial(self) -> tuple[int, float]:
        """Flight export + client receive; returns (rows, sum(amount))."""
        table = self.table
        self.note_frozen_fraction()
        nbytes = 0
        serialize = client = 0.0
        with self.tracer.span("workloads.export_trial"):
            while serialize + client < TRIAL_MIN_SECONDS:
                start = perf_counter()
                stream = flight.export_stream(self.db.txn_manager, table)
                middle = perf_counter()
                received = flight.client_receive(stream.payload)
                client += perf_counter() - middle
                serialize += middle - start
                nbytes += len(stream.payload)
        self.exports.append((nbytes / 1e6, serialize + client))
        self.export_serialize_seconds += serialize
        self.export_client_seconds += client
        self.export_frozen_blocks += stream.frozen_blocks
        self.export_materialized_blocks += stream.materialized_blocks
        return received.num_rows, _amount_sum(received, self.amount_column)

    def scan_trial(self) -> tuple[int, float]:
        """Snapshot scan aggregating one numeric column; returns (rows, sum)."""
        table = self.table
        column = table.layout.index_of(self.amount_column)
        rows = 0
        seconds = 0.0
        with self.tracer.span("workloads.scan_trial"):
            while seconds < TRIAL_MIN_SECONDS:
                count = 0
                total = 0.0
                start = last = perf_counter()
                scanner = TableScanner(self.db.txn_manager, table, column_ids=[column])
                for batch in scanner.batches():
                    total += float(batch.column(column).sum())
                    count += batch.num_rows
                    now = perf_counter()
                    split = self.scan_frozen if batch.from_frozen else self.scan_hot
                    split[0] += batch.num_rows
                    split[1] += now - last
                    last = now
                seconds += perf_counter() - start
                rows += count
        self.scans.append((rows, seconds))
        return count, total

    def filtered_scan(self) -> tuple[float, int]:
        """(seconds, blocks pruned) of a zone-map-filtered scan over the
        lowest tenth of the first column's range (traced run only)."""
        table = self.table
        column = table.layout.index_of(self.amount_column)
        scanner = TableScanner(
            self.db.txn_manager, table, column_ids=[0, column],
            range_filters={0: (None, self.filter_high())},
        )
        start = perf_counter()
        for batch in scanner.batches():
            batch.gather(column).sum()
        return perf_counter() - start, scanner.blocks_pruned

    def filter_high(self) -> float:
        raise NotImplementedError

    def recover(self) -> tuple[int, float]:
        """Replay the whole log into a fresh database; (bytes, seconds)."""
        self.db.log_manager.flush()  # commits since the last maintenance tick
        raw = self.db.log_contents()
        fresh = Database(logging_enabled=False)
        self.create_schema(fresh)
        fresh.recover_from(raw[: 1 << 16])  # untimed warm-up on a torn prefix
        fresh = Database(logging_enabled=False)
        self.create_schema(fresh)
        start = perf_counter()
        fresh.recover_from(raw)
        seconds = perf_counter() - start
        for name in self.db.catalog.table_names():
            self.check(
                f"recovered row count of {name}",
                fresh.catalog.table(name).live_tuple_count()
                == self.db.catalog.table(name).live_tuple_count(),
            )
        return len(raw), seconds

    def verify(self) -> None:
        report = self.db.verify_integrity()
        self.check(f"integrity: {report.findings[:3]}", report.ok)


# ---------------------------------------------------------------------- #
# tpcc_mix                                                                #
# ---------------------------------------------------------------------- #

#: Clause 5.2.4's minimum mix as a deck of 100 cards, shuffled per deck:
#: the share of heavy Delivery/StockLevel transactions is then the same
#: for every seed and run length, not a binomial draw.
TPCC_DECK = (
    ["new_order"] * 45 + ["payment"] * 43
    + ["order_status"] * 4 + ["delivery"] * 4 + ["stock_level"] * 4
)


class TpccMix(Workload):
    name = "tpcc_mix"
    # stock is the mix's hottest table (ten rows updated per NewOrder) and
    # is never frozen: this workload's exports are the 0 %-frozen end of
    # Fig. 15.  order_line was tried first; its export time is set by how
    # full the hot tail block happens to be (4-70 MB/s between trials).
    table_name = "stock"
    amount_column = "s_ytd"
    cold_tables = COLD_TABLES
    maintenance_every = 50
    ops_per_round = 150

    def __init__(self, seed: int, scale: float, tracer) -> None:
        super().__init__(seed, scale, tracer)
        self.config = TpccConfig.small()
        self.profiles = TpccTransactions(self.db, self.config, seed=seed + 1000)
        self.retries = self.db.obs.counter("workload.txn_retries_total")
        self.deck: list[str] = []

    def create_schema(self, db: Database) -> None:
        create_tpcc_tables(db, self.config)

    def populate(self) -> None:
        TpccLoader(self.db, self.config, seed=self.seed).load()

    def transaction(self) -> bool:
        if not self.deck:
            self.deck = list(TPCC_DECK)
            self.rng.shuffle(self.deck)
        profile = self.deck.pop()
        retries_before = self.retries.value
        if getattr(self.profiles, profile)(1):
            return True
        # The spec's 1 % NewOrder rollback is a completed transaction; a
        # conflict that exhausted its retries is not.
        return profile == "new_order" and self.retries.value == retries_before

    def filter_high(self) -> float:
        return self.config.items / 10

    def verify(self) -> None:
        super().verify()
        report = check_consistency(self.db)
        self.check(f"tpcc consistency: {report.violations[:3]}", report.consistent)


# ---------------------------------------------------------------------- #
# htap_moving_hotspot                                                     #
# ---------------------------------------------------------------------- #


class UsertableWorkload(Workload):
    """A ``usertable(key, amount, field0)`` behind a B+-tree on ``key``."""

    rows = 0
    block_size = 1 << 15

    def __init__(self, seed: int, scale: float, tracer) -> None:
        super().__init__(seed, scale, tracer)
        self.rows = max(1000, int(self.rows * scale))

    def create_schema(self, db: Database) -> None:
        db.create_table(
            "usertable", USERTABLE, block_size=self.block_size, watch_cold=True
        )
        db.create_index("usertable", "pk", ["key"])

    def populate(self) -> None:
        table = self.table
        rng = self.rng
        for base in range(0, self.rows, 1000):
            with self.db.transaction() as txn:
                for key in range(base, min(self.rows, base + 1000)):
                    table.insert(
                        txn, {KEY: key, AMOUNT: rng.random() * 100, FIELD0: _field(rng)}
                    )
            self.db.log_manager.flush()

    def filter_high(self) -> float:
        return self.rows / 10


class HtapMovingHotspot(UsertableWorkload):
    name = "htap_moving_hotspot"
    rows = 16_000
    block_size = 1 << 14
    maintenance_every = 250
    ops_per_round = 2000
    #: The hot window is this wide and slides over this much of the key
    #: space during the run, so blocks behind it cool and freeze again.
    window = 0.05
    sweep = 0.80

    def __init__(self, seed: int, scale: float, tracer) -> None:
        super().__init__(seed, scale, tracer)
        self.next_key = self.rows

    def transaction(self) -> bool:
        rng = self.rng
        db = self.db
        table = self.table
        width = max(1, int(self.rows * self.window))
        start = int(self.rows * self.sweep * self.op_index / self.total_ops)
        key = start + rng.randrange(width)
        pick = rng.random()
        txn = db.begin()
        ok = True
        if pick < 0.30:
            self.index.lookup(txn, (key,))
        elif pick < 0.85:
            hits = self.index.lookup(txn, (key,), [KEY])
            if hits:
                ok = table.update(
                    txn, hits[0][0], {AMOUNT: rng.random() * 100, FIELD0: _field(rng)}
                )
        elif pick < 0.95:
            table.insert(
                txn,
                {KEY: self.next_key, AMOUNT: rng.random() * 100, FIELD0: _field(rng)},
            )
            self.next_key += 1
        else:
            hits = self.index.lookup(txn, (key,), [KEY])
            if hits:
                ok = table.delete(txn, hits[0][0])
        if not ok:
            db.abort(txn)
            return False
        db.commit(txn)
        return True


# ---------------------------------------------------------------------- #
# export_frozen                                                           #
# ---------------------------------------------------------------------- #

ORDER_LINE = [
    ColumnSpec("ol_o_id", INT64),
    ColumnSpec("ol_number", INT64),
    ColumnSpec("ol_i_id", INT64),
    ColumnSpec("ol_supply_w_id", INT64),
    ColumnSpec("ol_delivery_d", INT64),
    ColumnSpec("ol_quantity", INT64),
    ColumnSpec("ol_amount", FLOAT64),
    ColumnSpec("ol_dist_info", UTF8),
]
LINES_PER_ORDER = 10


class ExportFrozen(Workload):
    name = "export_frozen"
    table_name = "order_line"
    amount_column = "ol_amount"
    cold_tables = ("order_line",)
    maintenance_every = 500
    ops_per_round = 1000
    orders = 2000
    block_size = 1 << 16

    def __init__(self, seed: int, scale: float, tracer) -> None:
        super().__init__(seed, scale, tracer)
        self.orders = max(100, int(self.orders * scale))
        self.live_lines: list[int] = []

    def create_schema(self, db: Database) -> None:
        db.create_table(
            "order_line", ORDER_LINE, block_size=self.block_size, watch_cold=True
        )
        db.create_index("order_line", "pk", ["ol_o_id", "ol_number"])

    def populate(self) -> None:
        table = self.table
        rng = self.rng
        # Whole blocks only: a partly filled insertion block never cools,
        # and this workload is the 100 %-frozen end of Fig. 15.
        per_block = table.layout.num_slots
        rows = max(1, self.orders * LINES_PER_ORDER // per_block) * per_block
        self.orders = -(-rows // LINES_PER_ORDER)
        self.live_lines = [0] * self.orders
        slots = []
        for base in range(0, rows, 1000):
            with self.db.transaction() as txn:
                for row in range(base, min(rows, base + 1000)):
                    order, number = divmod(row, LINES_PER_ORDER)
                    slots.append((order, table.insert(txn, {
                        0: order, 1: number, 2: rng.randrange(100_000), 3: 1,
                        4: 1_600_000_000 + order, 5: rng.randrange(1, 11),
                        6: rng.random() * 100, 7: _field(rng),
                    })))
                    self.live_lines[order] += 1
            self.db.log_manager.flush()
        # A tenth of the rows die, so freezing has to compact first.
        doomed = rng.sample(slots, len(slots) // 10)
        for base in range(0, len(doomed), 1000):
            with self.db.transaction() as txn:
                for order, slot in doomed[base : base + 1000]:
                    table.delete(txn, slot)
                    self.live_lines[order] -= 1
            self.db.log_manager.flush()

    def transaction(self) -> bool:
        order = self.rng.randrange(self.orders)
        txn = self.db.begin()
        lines = list(self.index.range_scan(txn, (order, 0), (order, LINES_PER_ORDER)))
        self.db.commit(txn)
        return len(lines) == self.live_lines[order]

    def filter_high(self) -> float:
        return self.orders / 10


# ---------------------------------------------------------------------- #
# service_closedloop                                                      #
# ---------------------------------------------------------------------- #


class ServiceClosedLoop(UsertableWorkload):
    """Two blocking connections, each sending its next request when the
    previous one is answered (an app server's connection pool).

    The WAL stays synchronous here: a write is acknowledged only once it
    is durable, and with no background flusher the commit itself flushes.
    Maintenance runs on the driver thread between rounds, while both
    connections are idle, so it never conflicts with a request.
    """

    name = "service_closedloop"
    rows = 6000
    ops_per_round = 800
    connections = 2
    zipf_theta = 0.9

    def __init__(self, seed: int, scale: float, tracer) -> None:
        super().__init__(seed, scale, tracer)
        self.db.log_manager.synchronous = True
        self.server = None
        self.clients: list = []
        self.analytics = None

    def load(self) -> None:
        from repro.service.client import ServiceClient
        from repro.service.server import ServerThread

        super().load()
        self.server = ServerThread(self.db).start()
        port = self.server.port
        self.clients = [ServiceClient(port=port) for _ in range(self.connections)]
        self.analytics = ServiceClient(port=port, timeout=60.0)
        self.generators = [
            (
                random.Random(self.seed * 7919 + i),
                ZipfianGenerator(self.rows, self.zipf_theta, seed=self.seed * 104729 + i),
            )
            for i in range(self.connections)
        ]

    def close(self) -> None:
        for client in self.clients + [self.analytics]:
            if client is not None:
                client.close()
        if self.server is not None:
            self.server.stop(timeout=30.0)

    def _connection_loop(self, which: int, count: int, out: list) -> None:
        client = self.clients[which]
        rng, zipf = self.generators[which]
        span = self.tracer.span
        latencies = []
        bad = []
        for _ in range(count):
            key = zipf.next() % self.rows
            start = perf_counter()
            if rng.random() < 0.5:
                with span("service.read"):
                    response = client.read("usertable", "pk", (key,), ["amount"])
            else:
                values = {"key": key, "amount": rng.random() * 100, "field0": _field(rng)}
                with span("service.write"):
                    response = client.write("usertable", "pk", (key,), values)
            latencies.append(perf_counter() - start)
            if not response.ok:
                bad.append("shed" if response.shed else f"error:{response.code}")
        out[which] = (latencies, bad)

    def oltp_round(self) -> None:
        share = self.ops_per_round // self.connections
        out: list = [None] * self.connections
        threads = [
            threading.Thread(target=self._connection_loop, args=(i, share, out))
            for i in range(self.connections)
        ]
        began = perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        self.maintain()
        self.oltp_seconds += perf_counter() - began
        for latencies, bad in out:
            self.latencies.extend(latencies)
            self.attempted += len(latencies)
            self.committed += len(latencies) - len(bad)
            self.failed += len(bad)
            self.sheds += bad.count("shed")
            self.errors += len(bad) - bad.count("shed")
            self.failures.extend(bad[:3])
        self.op_index += share * self.connections

    def export_trial(self) -> tuple[int, float]:
        self.note_frozen_fraction()
        nbytes = 0
        seconds = 0.0
        while seconds < TRIAL_MIN_SECONDS:
            start = perf_counter()
            with self.tracer.span("service.export"):
                response = self.analytics.export("usertable")
            seconds += perf_counter() - start
            nbytes += len(response.payload)
            if not response.ok:
                self.failures.append(f"export: {response.code}")
                return -1, 0.0
        self.exports.append((nbytes / 1e6, seconds))
        self.export_client_seconds += seconds
        received = ipc.read_table(response.payload)
        return received.num_rows, _amount_sum(received, self.amount_column)

    def scan_trial(self) -> tuple[int, float]:
        rows = 0
        seconds = 0.0
        while seconds < TRIAL_MIN_SECONDS:
            start = perf_counter()
            with self.tracer.span("service.scan"):
                response = self.analytics.scan("usertable", columns=["amount"])
            seconds += perf_counter() - start
            if not response.ok:
                self.failures.append(f"scan: {response.code}")
                return -2, 0.0
            rows += response.meta["rows"]
        self.scans.append((rows, seconds))
        amounts = [row[0] for row in response.rows()]
        return len(amounts), float(sum(float(a) for a in amounts))

    def ping(self, count: int) -> None:
        for _ in range(count):
            with self.tracer.span("service.ping"):
                response = self.analytics.ping()
            self.check("ping", response.ok)


WORKLOADS = {
    cls.name: cls
    for cls in (TpccMix, HtapMovingHotspot, ExportFrozen, ServiceClosedLoop)
}
