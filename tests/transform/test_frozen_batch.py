"""The per-freeze record batch: built in FREEZING, keyed by ``frozen_at``,
read under a frozen-read pin."""

import threading
import time

import pytest

from repro import ColumnSpec, Database, INT64, UTF8
from repro.errors import BlockStateError
from repro.export.flight import client_receive, export_stream
from repro.query import scan
from repro.query.scan import TableScanner
from repro.storage.constants import BlockState
from repro.transform import arrow_view
from repro.transform.arrow_view import BlockWalk, frozen_batch


def build(blocks=2):
    db = Database(logging_enabled=False, cold_threshold_epochs=1)
    info = db.create_table(
        "t",
        [ColumnSpec("id", INT64), ColumnSpec("s", UTF8)],
        block_size=1 << 13,
        watch_cold=True,
    )
    with db.transaction() as txn:
        slots = [
            info.table.insert(txn, {0: i, 1: f"value-{i}-long-enough-to-spill"})
            for i in range(info.table.layout.num_slots * blocks)
        ]
    db.freeze_table("t")
    assert all(b.state is BlockState.FROZEN for b in info.table.blocks)
    return db, info, slots


def walk_batches(txn_manager, table):
    """One record batch per non-empty block, read through one
    :class:`BlockWalk` that keeps its pins until the generator is
    exhausted or closed."""
    with BlockWalk(txn_manager, lambda: table.blocks) as walk:
        for block, frozen in walk:
            batch = walk.batch(block, frozen)
            if batch.num_rows:
                yield batch


def exported(db, info):
    table = client_receive(export_stream(db.txn_manager, info.table).payload)
    return dict(zip(table.column_values("id"), table.column_values("s")))


def scanned(db, info):
    values = {}
    for batch in TableScanner(db.txn_manager, info.table).batches():
        values.update(zip(batch.pylist(0), batch.pylist(1)))
    return values


def wait_until(condition, what):
    deadline = time.monotonic() + 10.0
    while not condition():
        assert time.monotonic() < deadline, f"timed out waiting for {what}"
        time.sleep(0.001)


class TestMemo:
    def test_built_at_freeze_and_shared_by_readers(self):
        db, info, _ = build()
        block = info.table.blocks[0]
        stamp, batch = block.arrow_batch
        assert stamp == block.frozen_at
        assert block.begin_frozen_read()
        try:
            assert frozen_batch(block) is batch
        finally:
            block.end_frozen_read()

    def test_requires_a_pin(self):
        db, info, _ = build()
        with pytest.raises(BlockStateError):
            frozen_batch(info.table.blocks[0])

    def test_refrozen_block_never_serves_the_old_batch(self):
        db, info, slots = build()
        block = info.table._block(slots[0].block_id)
        old_stamp = block.frozen_at
        assert exported(db, info)[0] == "value-0-long-enough-to-spill"
        with db.transaction() as txn:
            info.table.update(txn, slots[0], {1: "updated"})
        assert block.arrow_batch is None  # the reheat dropped it
        db.freeze_table("t")
        assert block.state is BlockState.FROZEN
        assert block.frozen_at != old_stamp
        assert block.arrow_batch[0] == block.frozen_at
        assert exported(db, info)[0] == "updated"
        assert scanned(db, info)[0] == "updated"


class TestPinnedReader:
    """A reader that holds a pin must not fail when a writer flips the block
    HOT and waits for it; the write lands once the pin is released."""

    def start_writer_on_first_read(self, monkeypatch, module, block, write):
        """Patch ``module.frozen_batch`` so its first read of ``block`` runs
        after ``write`` (in a thread) has flipped the block HOT and is
        blocked on the reader's pin."""
        threads = []
        read = module.frozen_batch

        def read_after_flip(b):
            if b is block and not threads:
                assert b.reader_count > 0
                thread = threading.Thread(target=write, daemon=True)
                thread.start()
                threads.append(thread)
                wait_until(lambda: block.state is BlockState.HOT, "the reheat")
                assert thread.is_alive()
            return read(b)

        monkeypatch.setattr(module, "frozen_batch", read_after_flip)
        return threads

    @pytest.mark.parametrize("reader", ["export", "scan"])
    def test_read_returns_pre_write_rows_then_write_lands(self, monkeypatch, reader):
        db, info, slots = build()
        block = info.table._block(slots[0].block_id)

        def write():
            with db.transaction() as txn:
                info.table.update(txn, slots[0], {1: "written"})

        module, read = (arrow_view, exported) if reader == "export" else (scan, scanned)
        threads = self.start_writer_on_first_read(monkeypatch, module, block, write)
        values = read(db, info)
        assert threads, "the reader never read the pinned block"
        assert values[0] == "value-0-long-enough-to-spill"
        assert len(values) == len(slots)
        threads[0].join(timeout=10.0)
        assert not threads[0].is_alive()
        monkeypatch.undo()
        assert block.reader_count == 0
        assert exported(db, info)[0] == "written"
        assert scanned(db, info)[0] == "written"

    def test_second_writer_waits_for_the_pin_too(self):
        db, info, slots = build()
        block = info.table._block(slots[0].block_id)
        assert slots[1].block_id == block.block_id

        def write(slot, delta):
            with db.transaction() as txn:
                info.table.update(txn, slot, delta)

        assert block.begin_frozen_read()
        try:
            first = threading.Thread(target=write, args=(slots[0], {1: "first"}))
            first.start()
            wait_until(lambda: block.state is BlockState.HOT, "the reheat")
            second = threading.Thread(target=write, args=(slots[1], {0: -1}))
            second.start()
            second.join(timeout=0.2)
            assert second.is_alive()  # blocked on the pin, not writing under it
            assert frozen_batch(block).column("id").to_numpy()[1] == 1
        finally:
            block.end_frozen_read()
        for thread in (first, second):
            thread.join(timeout=10.0)
            assert not thread.is_alive()
        values = scanned(db, info)
        assert values[0] == "first"
        assert -1 in values and 1 not in values


class TestPinsLastTheWholeWalk:
    """A frozen batch already handed to the caller aliases block memory, so
    the reader keeps its pin until it is exhausted or closed: a writer
    waits, and the batch never shows its uncommitted update."""

    @pytest.mark.parametrize("reader", ["scan", "stream"])
    def test_yielded_batch_never_sees_an_uncommitted_update(self, reader):
        db, info, slots = build()
        if reader == "scan":
            batches = TableScanner(db.txn_manager, info.table, column_ids=[0]).batches()
            ids = next(batches).column(0)
        else:
            batches = walk_batches(db.txn_manager, info.table)
            ids = next(batches).column("id").to_numpy()
        assert ids[0] == 0
        updated = threading.Event()
        writer = db.txn_manager.begin()

        def update():
            info.table.update(writer, slots[0], {0: -777})
            updated.set()

        thread = threading.Thread(target=update, daemon=True)
        thread.start()
        try:
            assert not updated.wait(0.2)  # blocked on the reader's pin
            assert ids[0] == 0
        finally:
            batches.close()
        assert updated.wait(10.0)
        thread.join(timeout=10.0)
        db.txn_manager.abort(writer)  # the update is never committed
        assert scanned(db, info)[0] == "value-0-long-enough-to-spill"


class TestOneSnapshotPerWalk:
    """A walk with a hot block begins its snapshot before it reads anything
    and lists the blocks again under it, so a transaction that commits
    while the walk is open is seen whole or not at all — even when it
    spilled into a block appended after the walk opened."""

    @pytest.mark.parametrize("reader", ["scan", "stream"])
    def test_commit_during_walk_is_not_torn(self, reader):
        db, info, _ = build()
        per_block = info.table.layout.num_slots
        with db.transaction() as txn:
            tail = info.table.insert(txn, {0: 10**6, 1: "hot tail"})
        if reader == "scan":
            batches = TableScanner(db.txn_manager, info.table, column_ids=[0]).batches()
            ids = lambda batch: batch.pylist(0)  # noqa: E731
        else:
            batches = walk_batches(db.txn_manager, info.table)
            ids = lambda batch: batch.column("id").to_numpy().tolist()  # noqa: E731
        seen = ids(next(batches))  # the first frozen block: the walk is open
        blocks_before = len(info.table.blocks)
        with db.transaction() as txn:
            info.table.update(txn, tail, {0: -1})
            for i in range(per_block):
                info.table.insert(txn, {0: -2 - i, 1: "new"})
        assert len(info.table.blocks) > blocks_before  # spilled into a new block
        for batch in batches:
            seen += ids(batch)
        saw_update = -1 in seen
        inserted = sum(1 for value in seen if value <= -2)
        assert (saw_update, inserted) in {(False, 0), (True, per_block)}
        assert all(block.reader_count == 0 for block in info.table.blocks)
