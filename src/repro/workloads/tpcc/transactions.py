"""The five TPC-C transaction profiles (spec clause 2).

Each method runs one complete transaction against the engine: it begins,
reads and writes through indexes and the Data Table API, and commits —
or aborts and reports failure when it loses a write-write conflict.  The
NewOrder profile also performs the spec's 1% deliberate rollback through an
unused item id.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.errors import TransactionAborted
from repro.workloads.tpcc.random_gen import TpccRandom
from repro.workloads.tpcc.schema import TPCC_TABLES, TpccConfig

if TYPE_CHECKING:
    from repro.db import Database
    from repro.txn.context import TransactionContext


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

    # ------------------------------------------------------------------ #
    # helpers                                                             #
    # ------------------------------------------------------------------ #

    def _values(self, table: str, **fields: Any) -> dict[int, Any]:
        ids = self._cols[table]
        return {ids[name]: value for name, value in fields.items()}

    def _named(self, table: str, row) -> dict[str, Any]:
        ids = self._cols[table]
        by_id = row.to_dict()
        return {name: by_id[i] for name, i in ids.items() if i in by_id}

    def _lookup_one(self, txn, table: str, index: str, key: tuple):
        hits = self.db.catalog.index(table, index).lookup(txn, key)
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

    def _pick_customer(self, txn, w_id: int, d_id: int):
        """60/40 by-id vs by-last-name customer selection (clause 2.5.1.2)."""
        if self.rand.random() < 0.6:
            c_id = self.rand.nurand(1023, 1, self.config.customers_per_district)
            return self._lookup_one(txn, "customer", "pk", (w_id, d_id, c_id))
        last = self.rand.random_last_name(self.config.customers_per_district)
        index = self.db.catalog.index("customer", "by_name")
        matches = list(
            index.range_scan(txn, (w_id, d_id, last), (w_id, d_id, last + "￿"))
        )
        if not matches:
            c_id = self.rand.uniform(1, self.config.customers_per_district)
            return self._lookup_one(txn, "customer", "pk", (w_id, d_id, c_id))
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

        def body(txn: "TransactionContext") -> bool:
            warehouse_slot, warehouse = self._lookup_one(txn, "warehouse", "pk", (w_id,))
            district_slot, district = self._lookup_one(txn, "district", "pk", (w_id, d_id))
            _, customer = self._lookup_one(txn, "customer", "pk", (w_id, d_id, c_id))
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
                _, item = self._lookup_one(txn, "item", "pk", (i_id,))
                if item is None:
                    # The spec's deliberate rollback: unused item id.
                    return False
                stock_slot, stock = self._lookup_one(
                    txn, "stock", "pk", (supply_w, i_id)
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
                    ol_dist_info=s[f"s_dist_{d_id:02d}"] if d_id <= 10 else s["s_dist_01"],
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

        def body(txn: "TransactionContext") -> bool:
            warehouse_slot, warehouse = self._lookup_one(txn, "warehouse", "pk", (w_id,))
            district_slot, district = self._lookup_one(txn, "district", "pk", (w_id, d_id))
            customer_slot, customer = self._pick_customer(txn, c_w_id, c_d_id)
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
                h_c_id=c["c_id"], h_c_d_id=c["c_d_id"], h_c_w_id=c["c_w_id"],
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

        def body(txn: "TransactionContext") -> bool:
            _, customer = self._pick_customer(txn, w_id, d_id)
            if customer is None:
                return False
            c_id = self._named("customer", customer)["c_id"]
            by_customer = self.db.catalog.index("oorder", "by_customer")
            orders = list(by_customer.range_scan(
                txn, (w_id, d_id, c_id), (w_id, d_id, c_id + 1), column_ids=None,
            ))
            if not orders:
                return True  # a customer with no orders is a valid outcome
            _, _, order = orders[-1]
            o = self._named("oorder", order)
            ol_pk = self.db.catalog.index("order_line", "pk")
            lines = list(ol_pk.range_scan(
                txn, (w_id, d_id, o["o_id"]), (w_id, d_id, o["o_id"] + 1)
            ))
            return True

        return self._run("order_status", body)

    def delivery(self, w_id: int | None = None) -> bool:
        """The Delivery transaction (clause 2.7)."""
        r = self.rand
        w_id = w_id or r.uniform(1, self.config.warehouses)
        carrier = r.uniform(1, 10)

        def body(txn: "TransactionContext") -> bool:
            no_index = self.db.catalog.index("new_order", "pk")
            for d_id in range(1, self.config.districts_per_warehouse + 1):
                pending = list(
                    no_index.range_scan(txn, (w_id, d_id, 0), (w_id, d_id + 1, 0))
                )
                if not pending:
                    continue
                _, no_slot, no_row = pending[0]
                o_id = self._named("new_order", no_row)["no_o_id"]
                if not self.db.catalog.table("new_order").delete(txn, no_slot):
                    return False
                order_slot, order = self._lookup_one(txn, "oorder", "pk", (w_id, d_id, o_id))
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
                    txn, (w_id, d_id, o_id), (w_id, d_id, o_id + 1)
                ):
                    ol = self._named("order_line", ol_row)
                    total += ol["ol_amount"]
                    if not ol_table.update(
                        txn, ol_slot, self._values("order_line", ol_delivery_d=self._now())
                    ):
                        return False
                customer_slot, customer = self._lookup_one(
                    txn, "customer", "pk", (w_id, d_id, o["o_c_id"])
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

        def body(txn: "TransactionContext") -> bool:
            _, district = self._lookup_one(txn, "district", "pk", (w_id, d_id))
            if district is None:
                return False
            next_o_id = self._named("district", district)["d_next_o_id"]
            seen: set[int] = set()
            for _, _, ol_row in self.db.catalog.index("order_line", "pk").range_scan(
                txn, (w_id, d_id, max(1, next_o_id - 20)), (w_id, d_id, next_o_id)
            ):
                seen.add(self._named("order_line", ol_row)["ol_i_id"])
            low = 0
            for i_id in seen:
                _, stock = self._lookup_one(txn, "stock", "pk", (w_id, i_id))
                if stock is not None:
                    if self._named("stock", stock)["s_quantity"] < threshold:
                        low += 1
            return True

        return self._run("stock_level", body)
