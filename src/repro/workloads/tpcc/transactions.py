"""The five TPC-C transaction profiles (spec clause 2).

Each method runs one complete transaction against the engine: it begins,
reads and writes through indexes and the Data Table API, and commits —
or aborts and reports failure when it loses a write-write conflict.  The
NewOrder profile also performs the spec's 1% deliberate rollback through an
unused item id.

Every read is projected (Section 3.1's ``ProjectedRow``): it materializes
only the columns :data:`READS` lists for it, never the whole tuple.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.errors import TransactionAborted, WorkloadError
from repro.workloads.tpcc.random_gen import TpccRandom
from repro.workloads.tpcc.schema import TPCC_TABLES, TpccConfig

if TYPE_CHECKING:
    from repro.db import Database
    from repro.txn.context import TransactionContext


#: The columns each profile reads from each table: the SELECT list of the
#: spec clause, plus the columns the profile's UPDATE increments.  Resolved
#: to column ids once, when :class:`TpccTransactions` is built.
READS: dict[str, dict[str, tuple[str, ...]]] = {
    # Clause 2.4.2.2.  The stock read also takes the district's
    # S_DIST_xx column (:func:`_dist_column`).
    "new_order": {
        "warehouse": ("w_tax",),
        "district": ("d_tax", "d_next_o_id"),
        "customer": ("c_discount", "c_last", "c_credit"),
        "item": ("i_price", "i_name", "i_data"),
        "stock": ("s_quantity", "s_data", "s_ytd", "s_order_cnt", "s_remote_cnt"),
    },
    # Clause 2.5.2.2.
    "payment": {
        "warehouse": (
            "w_name", "w_street_1", "w_street_2", "w_city", "w_state", "w_zip", "w_ytd",
        ),
        "district": (
            "d_name", "d_street_1", "d_street_2", "d_city", "d_state", "d_zip", "d_ytd",
        ),
        "customer": (
            "c_id", "c_first", "c_middle", "c_last", "c_street_1", "c_street_2",
            "c_city", "c_state", "c_zip", "c_phone", "c_since", "c_credit",
            "c_credit_lim", "c_discount", "c_balance",
            "c_ytd_payment", "c_payment_cnt", "c_data",
        ),
    },
    # Clause 2.6.2.2.
    "order_status": {
        "customer": ("c_id", "c_balance", "c_first", "c_middle", "c_last"),
        "oorder": ("o_id", "o_entry_d", "o_carrier_id"),
        "order_line": (
            "ol_i_id", "ol_supply_w_id", "ol_quantity", "ol_amount", "ol_delivery_d",
        ),
    },
    # Clause 2.7.4.2.
    "delivery": {
        "new_order": ("no_o_id",),
        "oorder": ("o_c_id",),
        "order_line": ("ol_amount",),
        "customer": ("c_balance", "c_delivery_cnt"),
    },
    # Clause 2.8.2.2.
    "stock_level": {
        "district": ("d_next_o_id",),
        "order_line": ("ol_i_id",),
        "stock": ("s_quantity",),
    },
}


def _dist_column(d_id: int) -> str:
    """NewOrder's S_DIST_xx: the stock column for district ``d_id``."""
    return f"s_dist_{d_id:02d}" if d_id <= 10 else "s_dist_01"


@dataclass
class TxnCounters:
    """Outcome counters per profile."""

    committed: dict[str, int] = field(
        default_factory=lambda: {p: 0 for p in ("new_order", "payment", "order_status", "delivery", "stock_level")}
    )
    aborted: dict[str, int] = field(
        default_factory=lambda: {p: 0 for p in ("new_order", "payment", "order_status", "delivery", "stock_level")}
    )

    @property
    def total_committed(self) -> int:
        return sum(self.committed.values())


class TpccTransactions:
    """Executable TPC-C transaction profiles over a loaded database."""

    def __init__(
        self,
        db: "Database",
        config: TpccConfig,
        seed: int | None = None,
        max_retries: int = 5,
    ) -> None:
        self.db = db
        self.config = config
        self.rand = TpccRandom(seed)
        self.counters = TxnCounters()
        #: Conflict-abort retry budget per transaction (clause 2.4.1.4's
        #: "resubmit" rule; deliberate rollbacks are never resubmitted).
        self.max_retries = max_retries
        #: Transactions whose durability callback has fired — the paper's
        #: "results released to the client" set, used by the torture
        #: harness as the lower bound recovery must reach.
        self.acked_writes = 0
        self._m_retries = db.obs.counter(
            "workload.txn_retries_total",
            "transaction attempts retried after write-write conflicts",
        )
        self._cols = {
            table: {spec.name: i for i, spec in enumerate(columns)}
            for table, columns in TPCC_TABLES.items()
        }
        self._names = {
            table: [spec.name for spec in columns]
            for table, columns in TPCC_TABLES.items()
        }
        self._reads = {
            profile: {table: self._column_ids(table, names) for table, names in tables.items()}
            for profile, tables in READS.items()
        }
        stock = READS["new_order"]["stock"]
        self._new_order_stock = {
            d_id: self._column_ids("stock", stock + (_dist_column(d_id),))
            for d_id in range(1, config.districts_per_warehouse + 1)
        }

    # ------------------------------------------------------------------ #
    # helpers                                                             #
    # ------------------------------------------------------------------ #

    def _values(self, table: str, **fields: Any) -> dict[int, Any]:
        ids = self._cols[table]
        return {ids[name]: value for name, value in fields.items()}

    def _column_ids(self, table: str, names: tuple[str, ...]) -> list[int]:
        ids = self._cols[table]
        unknown = [name for name in names if name not in ids]
        if unknown:
            raise WorkloadError(f"table {table!r} has no columns {unknown}")
        return [ids[name] for name in names]

    def _named(self, table: str, row) -> dict[str, Any]:
        names = self._names[table]
        return {names[i]: value for i, value in row.to_dict().items()}

    def _lookup_one(self, txn, table: str, index: str, key: tuple, column_ids: list[int]):
        hits = self.db.catalog.index(table, index).lookup(txn, key, column_ids)
        if not hits:
            return None, None
        return hits[0]

    def _now(self) -> int:
        return time.time_ns() // 1000

    def _run(self, profile: str, body) -> bool:
        """One profile execution with conflict retry.

        Write-write conflict aborts are resubmitted through
        :func:`repro.txn.retry.retry_transaction` (bounded, jittered
        backoff; ``workload.txn_retries_total`` counts resubmissions).
        Semantic aborts — the deliberate NewOrder rollback, a missing
        lookup — are final and never retried.
        """
        from repro.txn.retry import retry_transaction

        def attempt(txn: "TransactionContext") -> bool:
            txn.on_durable(lambda t=txn: self._note_durable(t))
            ok = body(txn)
            if not ok and not txn.must_abort:
                # A semantic abort: roll back here so the retry helper sees
                # a finished transaction and returns instead of retrying.
                if txn.is_active:
                    self.db.abort(txn)
                return False
            return ok

        try:
            ok = bool(
                retry_transaction(
                    self.db,
                    attempt,
                    retries=self.max_retries,
                    rng=self.rand,
                    retry_counter=self._m_retries,
                )
            )
        except TransactionAborted:
            ok = False
        (self.counters.committed if ok else self.counters.aborted)[profile] += 1
        return ok

    def _note_durable(self, txn: "TransactionContext") -> None:
        from repro.txn.context import TxnState

        if txn.state is TxnState.COMMITTED and len(txn.redo_buffer) > 0:
            self.acked_writes += 1

    def _pick_customer(self, txn, w_id: int, d_id: int, column_ids: list[int]):
        """60/40 by-id vs by-last-name customer selection (clause 2.5.1.2)."""
        if self.rand.random() < 0.6:
            c_id = self.rand.nurand(1023, 1, self.config.customers_per_district)
            return self._lookup_one(txn, "customer", "pk", (w_id, d_id, c_id), column_ids)
        last = self.rand.random_last_name(self.config.customers_per_district)
        index = self.db.catalog.index("customer", "by_name")
        matches = list(index.range_scan(
            txn, (w_id, d_id, last), (w_id, d_id, last + "￿"), column_ids
        ))
        if not matches:
            c_id = self.rand.uniform(1, self.config.customers_per_district)
            return self._lookup_one(txn, "customer", "pk", (w_id, d_id, c_id), column_ids)
        # Clause 2.5.2.2: the row at ceil(n/2) in first-name order.
        _, slot, row = matches[(len(matches) - 1) // 2]
        return slot, row

    # ------------------------------------------------------------------ #
    # profiles                                                            #
    # ------------------------------------------------------------------ #

    def new_order(self, w_id: int | None = None) -> bool:
        """The NewOrder transaction (clause 2.4)."""
        r = self.rand
        w_id = w_id or r.uniform(1, self.config.warehouses)
        d_id = r.uniform(1, self.config.districts_per_warehouse)
        c_id = r.nurand(1023, 1, self.config.customers_per_district)
        ol_cnt = r.uniform(5, 15)
        rollback = r.random() < self.config.new_order_rollback_rate
        lines = []
        for number in range(1, ol_cnt + 1):
            bad = rollback and number == ol_cnt
            i_id = 0 if bad else r.nurand(8191, 1, self.config.items)
            remote = self.config.warehouses > 1 and r.random() < 0.01
            supply_w = (
                r.choice([w for w in range(1, self.config.warehouses + 1) if w != w_id])
                if remote
                else w_id
            )
            lines.append((number, i_id, supply_w, r.uniform(1, 10)))
        reads = self._reads["new_order"]
        stock_columns = self._new_order_stock[d_id]

        def body(txn: "TransactionContext") -> bool:
            _, warehouse = self._lookup_one(
                txn, "warehouse", "pk", (w_id,), reads["warehouse"]
            )
            district_slot, district = self._lookup_one(
                txn, "district", "pk", (w_id, d_id), reads["district"]
            )
            _, customer = self._lookup_one(
                txn, "customer", "pk", (w_id, d_id, c_id), reads["customer"]
            )
            if None in (warehouse, district, customer):
                return False
            d = self._named("district", district)
            o_id = d["d_next_o_id"]
            district_table = self.db.catalog.table("district")
            if not district_table.update(
                txn, district_slot, self._values("district", d_next_o_id=o_id + 1)
            ):
                return False
            oorder = self.db.catalog.table("oorder")
            oorder.insert(txn, self._values(
                "oorder",
                o_id=o_id, o_d_id=d_id, o_w_id=w_id, o_c_id=c_id,
                o_entry_d=self._now(), o_carrier_id=0,
                o_ol_cnt=ol_cnt, o_all_local=int(all(l[2] == w_id for l in lines)),
            ))
            self.db.catalog.table("new_order").insert(
                txn, self._values("new_order", no_o_id=o_id, no_d_id=d_id, no_w_id=w_id)
            )
            stock_table = self.db.catalog.table("stock")
            ol_table = self.db.catalog.table("order_line")
            for number, i_id, supply_w, quantity in lines:
                _, item = self._lookup_one(txn, "item", "pk", (i_id,), reads["item"])
                if item is None:
                    # The spec's deliberate rollback: unused item id.
                    return False
                stock_slot, stock = self._lookup_one(
                    txn, "stock", "pk", (supply_w, i_id), stock_columns
                )
                if stock is None:
                    return False
                s = self._named("stock", stock)
                new_quantity = (
                    s["s_quantity"] - quantity
                    if s["s_quantity"] - quantity >= 10
                    else s["s_quantity"] - quantity + 91
                )
                if not stock_table.update(txn, stock_slot, self._values(
                    "stock",
                    s_quantity=new_quantity,
                    s_ytd=s["s_ytd"] + quantity,
                    s_order_cnt=s["s_order_cnt"] + 1,
                    s_remote_cnt=s["s_remote_cnt"] + (supply_w != w_id),
                )):
                    return False
                i = self._named("item", item)
                ol_table.insert(txn, self._values(
                    "order_line",
                    ol_o_id=o_id, ol_d_id=d_id, ol_w_id=w_id,
                    ol_number=number, ol_i_id=i_id, ol_supply_w_id=supply_w,
                    ol_delivery_d=0, ol_quantity=quantity,
                    ol_amount=quantity * i["i_price"],
                    ol_dist_info=s[_dist_column(d_id)],
                ))
            return True

        return self._run("new_order", body)

    def payment(self, w_id: int | None = None) -> bool:
        """The Payment transaction (clause 2.5)."""
        r = self.rand
        w_id = w_id or r.uniform(1, self.config.warehouses)
        d_id = r.uniform(1, self.config.districts_per_warehouse)
        amount = r.decimal(1.0, 5000.0)
        # Clause 2.5.1.2: 15% of payments are made by a customer of a
        # *remote* warehouse (cross-shard on a cluster).  The guard
        # short-circuits so single-warehouse RNG streams are unchanged.
        remote = (
            self.config.warehouses > 1
            and r.random() < self.config.payment_remote_rate
        )
        if remote:
            c_w_id = r.choice(
                [w for w in range(1, self.config.warehouses + 1) if w != w_id]
            )
            c_d_id = r.uniform(1, self.config.districts_per_warehouse)
        else:
            c_w_id, c_d_id = w_id, d_id
        reads = self._reads["payment"]

        def body(txn: "TransactionContext") -> bool:
            warehouse_slot, warehouse = self._lookup_one(
                txn, "warehouse", "pk", (w_id,), reads["warehouse"]
            )
            district_slot, district = self._lookup_one(
                txn, "district", "pk", (w_id, d_id), reads["district"]
            )
            customer_slot, customer = self._pick_customer(
                txn, c_w_id, c_d_id, reads["customer"]
            )
            if None in (warehouse, district, customer):
                return False
            w = self._named("warehouse", warehouse)
            d = self._named("district", district)
            c = self._named("customer", customer)
            if not self.db.catalog.table("warehouse").update(
                txn, warehouse_slot, self._values("warehouse", w_ytd=w["w_ytd"] + amount)
            ):
                return False
            if not self.db.catalog.table("district").update(
                txn, district_slot, self._values("district", d_ytd=d["d_ytd"] + amount)
            ):
                return False
            delta = self._values(
                "customer",
                c_balance=c["c_balance"] - amount,
                c_ytd_payment=c["c_ytd_payment"] + amount,
                c_payment_cnt=c["c_payment_cnt"] + 1,
            )
            if c["c_credit"] == "BC":
                data = f"{c['c_id']} {d_id} {w_id} {amount:.2f}|{c['c_data']}"[:500]
                delta.update(self._values("customer", c_data=data))
            if not self.db.catalog.table("customer").update(txn, customer_slot, delta):
                return False
            self.db.catalog.table("history").insert(txn, self._values(
                "history",
                h_c_id=c["c_id"], h_c_d_id=c_d_id, h_c_w_id=c_w_id,
                h_d_id=d_id, h_w_id=w_id, h_date=self._now(),
                h_amount=amount, h_data=f"{w['w_name']}    {d['d_name']}"[:24],
            ))
            return True

        return self._run("payment", body)

    def order_status(self, w_id: int | None = None) -> bool:
        """The OrderStatus transaction (clause 2.6, read-only)."""
        r = self.rand
        w_id = w_id or r.uniform(1, self.config.warehouses)
        d_id = r.uniform(1, self.config.districts_per_warehouse)
        reads = self._reads["order_status"]

        def body(txn: "TransactionContext") -> bool:
            _, customer = self._pick_customer(txn, w_id, d_id, reads["customer"])
            if customer is None:
                return False
            c_id = self._named("customer", customer)["c_id"]
            by_customer = self.db.catalog.index("oorder", "by_customer")
            orders = list(by_customer.range_scan(
                txn, (w_id, d_id, c_id), (w_id, d_id, c_id + 1), reads["oorder"]
            ))
            if not orders:
                return True  # a customer with no orders is a valid outcome
            _, _, order = orders[-1]
            o = self._named("oorder", order)
            ol_pk = self.db.catalog.index("order_line", "pk")
            lines = list(ol_pk.range_scan(
                txn, (w_id, d_id, o["o_id"]), (w_id, d_id, o["o_id"] + 1), reads["order_line"]
            ))
            return True

        return self._run("order_status", body)

    def delivery(self, w_id: int | None = None) -> bool:
        """The Delivery transaction (clause 2.7)."""
        r = self.rand
        w_id = w_id or r.uniform(1, self.config.warehouses)
        carrier = r.uniform(1, 10)
        reads = self._reads["delivery"]

        def body(txn: "TransactionContext") -> bool:
            no_index = self.db.catalog.index("new_order", "pk")
            for d_id in range(1, self.config.districts_per_warehouse + 1):
                pending = list(no_index.range_scan(
                    txn, (w_id, d_id, 0), (w_id, d_id + 1, 0), reads["new_order"]
                ))
                if not pending:
                    continue
                _, no_slot, no_row = pending[0]
                o_id = self._named("new_order", no_row)["no_o_id"]
                if not self.db.catalog.table("new_order").delete(txn, no_slot):
                    return False
                order_slot, order = self._lookup_one(
                    txn, "oorder", "pk", (w_id, d_id, o_id), reads["oorder"]
                )
                if order is None:
                    continue
                o = self._named("oorder", order)
                if not self.db.catalog.table("oorder").update(
                    txn, order_slot, self._values("oorder", o_carrier_id=carrier)
                ):
                    return False
                total = 0.0
                ol_table = self.db.catalog.table("order_line")
                for _, ol_slot, ol_row in self.db.catalog.index("order_line", "pk").range_scan(
                    txn, (w_id, d_id, o_id), (w_id, d_id, o_id + 1), reads["order_line"]
                ):
                    ol = self._named("order_line", ol_row)
                    total += ol["ol_amount"]
                    if not ol_table.update(
                        txn, ol_slot, self._values("order_line", ol_delivery_d=self._now())
                    ):
                        return False
                customer_slot, customer = self._lookup_one(
                    txn, "customer", "pk", (w_id, d_id, o["o_c_id"]), reads["customer"]
                )
                if customer is None:
                    continue
                c = self._named("customer", customer)
                if not self.db.catalog.table("customer").update(
                    txn, customer_slot, self._values(
                        "customer",
                        c_balance=c["c_balance"] + total,
                        c_delivery_cnt=c["c_delivery_cnt"] + 1,
                    )
                ):
                    return False
            return True

        return self._run("delivery", body)

    def stock_level(self, w_id: int | None = None) -> bool:
        """The StockLevel transaction (clause 2.8, read-only)."""
        r = self.rand
        w_id = w_id or r.uniform(1, self.config.warehouses)
        d_id = r.uniform(1, self.config.districts_per_warehouse)
        threshold = r.uniform(10, 20)
        reads = self._reads["stock_level"]

        def body(txn: "TransactionContext") -> bool:
            _, district = self._lookup_one(
                txn, "district", "pk", (w_id, d_id), reads["district"]
            )
            if district is None:
                return False
            next_o_id = self._named("district", district)["d_next_o_id"]
            seen: set[int] = set()
            for _, _, ol_row in self.db.catalog.index("order_line", "pk").range_scan(
                txn, (w_id, d_id, max(1, next_o_id - 20)), (w_id, d_id, next_o_id),
                reads["order_line"],
            ):
                seen.add(self._named("order_line", ol_row)["ol_i_id"])
            low = 0
            for i_id in seen:
                _, stock = self._lookup_one(txn, "stock", "pk", (w_id, i_id), reads["stock"])
                if stock is not None:
                    if self._named("stock", stock)["s_quantity"] < threshold:
                        low += 1
            return True

        return self._run("stock_level", body)
