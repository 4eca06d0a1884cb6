"""Block-at-a-time recovery against the database that wrote the log.

Replay folds the log into one final image per tuple, places the images
block by block and indexes them from sorted runs, so nothing of the
per-operation replay it replaced survives to compare with.  The oracle is
the source database itself: after recovery every row (values and Python
types), every index entry and every zone-map-pruned scan must match it.
The seeded histories cover NULLs, inline and out-of-line varlens, BOOL
columns, key-column updates, deletes, aborts and compaction moves (the
table is frozen between writes, so tuples move into the gaps deletes
left and the log records each move).
"""

import gc
import random

import pytest

from repro import INT64, UTF8, ColumnSpec, Database
from repro.errors import RecoveryError
from repro.query.scan import TableScanner
from repro.storage.constants import BlockState
from repro.wal.checkpoint import load_checkpoint
from repro.wal.records import DECISION_COMMIT
from repro.wal.recovery import RecoveryManager
from tests.transform.test_hot_batch import COLUMNS, random_delta, random_row

ID, AMOUNT, SMALL = 0, 1, 3


def make_db(logging_enabled=True):
    db = Database(logging_enabled=logging_enabled, cold_threshold_epochs=1)
    db.create_table("t", COLUMNS, block_size=1 << 13, watch_cold=True)
    db.create_index("t", "by_id", ["id"])
    db.create_index("t", "by_small", ["small"], kind="hash")
    return db


class History:
    """A seeded random history over ``make_db()``'s table, fully logged."""

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        self.db = make_db()
        self.table = self.db.catalog.table("t")
        self.next_id = 0
        self.slots = []

    def insert_rows(self, count: int) -> None:
        with self.db.transaction() as txn:
            for _ in range(count):
                self.slots.append(self.table.insert(txn, self.row()))

    def row(self) -> dict:
        self.next_id += 1
        return random_row(self.rng, self.next_id)

    def txn(self, ops: int, commit: bool = True):
        """Random inserts, deletes, key updates and updates."""
        txn = self.db.begin()
        for _ in range(ops):
            kind = self.rng.random()
            if kind < 0.25 or not self.slots:
                self.slots.append(self.table.insert(txn, self.row()))
            elif kind < 0.4:
                slot = self.slots.pop(self.rng.randrange(len(self.slots)))
                assert self.table.delete(txn, slot)
            elif kind < 0.5:
                self.next_id += 1
                assert self.table.update(txn, self.rng.choice(self.slots), {ID: self.next_id})
            else:
                assert self.table.update(
                    txn, self.rng.choice(self.slots), random_delta(self.rng)
                )
        if commit:
            self.db.commit(txn)
        return txn

    def freeze(self) -> None:
        """Compact and freeze; moved tuples get new slots, so re-list them."""
        self.db.freeze_table("t")
        with self.db.transaction() as txn:
            self.slots = [slot for slot, _ in self.table.scan(txn, [ID])]

    def build(self) -> "History":
        self.insert_rows(int(self.table.layout.num_slots * 2.5))
        for _ in range(3):
            self.txn(30)
        self.freeze()
        assert any(b.state is BlockState.FROZEN for b in self.table.blocks)
        for _ in range(3):
            self.txn(20)
        committed = list(self.slots)
        self.db.txn_manager.abort(self.txn(10, commit=False))
        self.slots = committed
        self.freeze()
        for _ in range(2):
            self.txn(15)
        self.db.quiesce()
        return self


def typed_rows(db) -> dict:
    """id → [(column, value, type)] of every visible row."""
    with db.transaction() as txn:
        return {
            row.get(ID): [(c, v, type(v)) for c, v in row.items()]
            for _, row in db.catalog.table("t").scan(txn)
        }


def index_contents(db) -> dict:
    """Per index: key → sorted ids of the rows the index finds under it."""
    contents = {}
    with db.transaction() as txn:
        for name in ("by_id", "by_small"):
            index = db.catalog.index("t", name)
            found = {}
            for key in index.structure.keys():
                ids = sorted(row.get(ID) for _, row in index.lookup(txn, key))
                if ids:
                    found[key] = ids
            contents[name] = found
    return contents


def filtered_ids(db, column_id, low, high):
    """(ids from a zone-map-filtered scan, ids the filter should keep)."""
    table = db.catalog.table("t")
    with db.transaction() as txn:
        scanner = TableScanner(
            None, table, [ID, column_id], range_filters={column_id: (low, high)}, txn=txn
        )
        got = sorted(row.get(ID) for _, row in scanner.rows())
        want = sorted(
            row.get(ID)
            for _, row in TableScanner(None, table, [ID, column_id], txn=txn).rows()
            if row.get(column_id) is not None and low <= row.get(column_id) <= high
        )
    return got, want, scanner.blocks_pruned


def assert_zone_maps_cover(db):
    table = db.catalog.table("t")
    for block in table.blocks:
        live = block.live_slots()
        for column_id in block.zone_eligible:
            valid = block.validity_bitmaps[column_id].to_numpy()[live]
            values = block.column_view(column_id)[live][valid]
            if len(values):
                low, high = block.hot_zone_maps[column_id]
                assert low <= values.min() and values.max() <= high


def assert_same_database(recovered, source):
    rows = typed_rows(source)
    assert rows and typed_rows(recovered) == rows
    assert index_contents(recovered) == index_contents(source)
    report = recovered.verify_integrity()
    assert report.ok, report.findings[:3]
    assert recovered.txn_manager.active_count == 0


@pytest.mark.parametrize("seed", range(6))
def test_recovered_database_matches_its_source(seed):
    source = History(seed).build().db
    recovered = make_db(logging_enabled=False)
    replayed = recovered.recover_from(source.log_contents(), tolerate_torn_tail=False)
    assert replayed > 10
    assert_same_database(recovered, source)
    assert_zone_maps_cover(recovered)
    high_id = max(typed_rows(source))
    got, want, pruned = filtered_ids(recovered, ID, 0, high_id // 4)
    assert got == want and want and pruned > 0
    got, want, _ = filtered_ids(recovered, AMOUNT, -2e5, 3e5)
    assert got == want and want


def test_placed_blocks_are_version_less_and_accept_inserts():
    source = History(11).build().db
    recovered = make_db(logging_enabled=False)
    recovered.recover_from(source.log_contents())
    table = recovered.catalog.table("t")
    assert len(table.blocks) >= 2
    assert all(not block.has_active_versions() for block in table.blocks)
    last = table.blocks[-1]
    head = last.insert_head
    assert head < table.layout.num_slots
    with recovered.transaction() as txn:
        slot = table.insert(txn, random_row(random.Random(0), 10**6))
    assert (slot.block_id, slot.offset) == (last.block_id, head)
    assert recovered.freeze_table("t") > 0
    assert recovered.verify_integrity().ok


def test_checkpoint_then_suffix_that_rewrites_checkpoint_rows():
    history = History(3).build()
    source = history.db
    checkpoint = source.checkpoint()
    # The suffix updates, re-keys and deletes pre-checkpoint rows.
    with source.transaction() as txn:
        for slot in history.slots[:20]:
            assert history.table.update(txn, slot, {SMALL: None, 4: "after-checkpoint" * 3})
        for slot in history.slots[20:30]:
            history.next_id += 1
            assert history.table.update(txn, slot, {ID: history.next_id})
        for slot in history.slots[30:40]:
            assert history.table.delete(txn, slot)
    history.slots = history.slots[:30] + history.slots[40:]
    history.txn(25)
    source.quiesce()

    recovered = make_db()
    assert recovered.recover_with_checkpoint(checkpoint, source.log_contents()) == 2
    assert_same_database(recovered, source)
    assert_zone_maps_cover(recovered)
    # The recovered database logged both the checkpoint rows and the
    # suffix, so its own log alone recovers the same rows.
    again = make_db(logging_enabled=False)
    again.recover_from(recovered.log_contents(), tolerate_torn_tail=False)
    assert_same_database(again, source)


def test_checkpoint_rows_are_placed_without_versions():
    source = History(4).build().db
    checkpoint = source.checkpoint()
    fresh = make_db()
    recovery = load_checkpoint(fresh, checkpoint)
    assert len(recovery.slot_map["t"]) == len(typed_rows(source))
    table = fresh.catalog.table("t")
    assert all(not block.has_active_versions() for block in table.blocks)
    assert_same_database(fresh, source)


def test_recovered_log_recovers_the_same_rows():
    source = History(5).build().db
    recovered = make_db()  # logging on: the recovery transaction is logged
    recovered.recover_from(source.log_contents())
    own_log = recovered.log_contents()
    assert own_log
    again = make_db(logging_enabled=False)
    assert again.recover_from(own_log, tolerate_torn_tail=False) == 1
    assert_same_database(again, source)


def test_indoubt_commit_touches_placed_tuples():
    history = History(6).build()
    source = history.db
    prepared = source.begin()
    victims = history.slots[:12]
    for slot in victims[:6]:
        assert history.table.update(prepared, slot, {AMOUNT: 1.5, 4: "in-doubt" * 3})
    for slot in victims[6:]:
        assert history.table.delete(prepared, slot)
    history.table.insert(prepared, history.row())
    source.txn_manager.prepare(prepared, "g.1")
    crashed = source.log_contents()  # the prepare is durable, no decision yet
    source.txn_manager.commit_prepared(prepared)
    source.quiesce()

    recovered = make_db(logging_enabled=False)
    recovery = RecoveryManager(recovered.txn_manager, recovered.catalog.data_tables())
    _, indoubt = recovery.replay_with_indoubt(crashed)
    assert list(indoubt) == ["g.1"]
    decisions = {"g.1": DECISION_COMMIT}
    for gid, operations in indoubt.items():
        if decisions.get(gid) == DECISION_COMMIT:
            recovery.apply_operations(operations)
    assert_same_database(recovered, source)


def one_insert_log():
    db = make_db()
    with db.transaction() as txn:
        db.catalog.table("t").insert(txn, random_row(random.Random(1), 1))
    return db.log_contents()


def test_failed_replay_leaves_no_transaction_open():
    db = make_db()
    table = db.catalog.table("t")
    with db.transaction() as txn:
        slot = table.insert(txn, random_row(random.Random(2), 1))
    first = len(db.log_contents())
    with db.transaction() as txn:
        table.update(txn, slot, {SMALL: 7})
    fresh = make_db()
    with pytest.raises(RecoveryError, match="before inserting"):
        fresh.recover_from(db.log_contents()[first:])
    assert fresh.txn_manager.active_count == 0
    assert typed_rows(fresh) == {}


def test_replay_pauses_the_collector_and_restores_its_state(monkeypatch):
    """Replay runs with the cyclic collector off and leaves it as it
    found it: on again after success or failure, off if it was off."""
    raw = one_insert_log()
    during = []
    apply = RecoveryManager._apply

    def spying_apply(self, transactions):
        during.append(gc.isenabled())
        return apply(self, transactions)

    monkeypatch.setattr(RecoveryManager, "_apply", spying_apply)
    assert make_db().recover_from(raw) == 1
    assert during == [False] and gc.isenabled()
    with pytest.raises(RecoveryError):
        make_db().recover_from(raw + raw)
    assert gc.isenabled()
    gc.disable()
    try:
        make_db().recover_from(raw)
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_insert_at_a_live_old_slot_is_rejected():
    raw = one_insert_log()
    fresh = make_db()
    with pytest.raises(RecoveryError, match="live tuple"):
        fresh.recover_from(raw + raw)
    assert fresh.txn_manager.active_count == 0
    assert fresh.catalog.table("t").live_tuple_count() == 0


def test_insert_at_an_old_slot_after_its_delete_is_replayed():
    db = make_db()
    table = db.catalog.table("t")
    with db.transaction() as txn:
        slot = table.insert(txn, random_row(random.Random(3), 1))
    with db.transaction() as txn:
        table.delete(txn, slot)
    raw = db.log_contents()
    insert_only = one_insert_log()  # its insert reuses the same old slot
    fresh = make_db()
    assert fresh.recover_from(raw + insert_only) == 3
    assert list(typed_rows(fresh)) == [1]


@pytest.mark.parametrize("tolerate_torn_tail", [False, True])
@pytest.mark.parametrize("target", [b"t", "hello-".encode()])
def test_invalid_utf8_is_a_recovery_error(tolerate_torn_tail, target):
    db = Database()
    db.create_table("t", [ColumnSpec("a", INT64), ColumnSpec("s", UTF8)])
    with db.transaction() as txn:
        db.catalog.table("t").insert(txn, {0: 1, 1: "hello-world"})
    raw = db.log_contents()
    position = raw.index(target)
    damaged = raw[:position] + b"\xff" + raw[position + 1 :]
    with pytest.raises(RecoveryError, match="UTF-8"):
        Database().recover_from(damaged, tolerate_torn_tail=tolerate_torn_tail)
