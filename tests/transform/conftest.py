"""Shared fixtures for transformation tests: a miniature engine."""

import random

import pytest

from repro.arrowfmt.datatypes import INT64, UTF8
from repro.gc_engine.collector import GarbageCollector
from repro.storage.block_store import BlockStore
from repro.storage.data_table import DataTable
from repro.storage.layout import BlockLayout, ColumnSpec
from repro.transform.access_observer import AccessObserver
from repro.transform.transformer import BlockTransformer
from repro.txn.manager import TransactionManager

SMALL_BLOCK = 1 << 14  # keep per-test tuple counts manageable


class MiniEngine:
    """A wired-together engine over one small-block table."""

    def __init__(self, cold_format="gather", threshold=1, group_size=10):
        self.layout = BlockLayout(
            [ColumnSpec("id", INT64), ColumnSpec("payload", UTF8)],
            block_size=SMALL_BLOCK,
        )
        self.store = BlockStore()
        self.tm = TransactionManager()
        self.table = DataTable(self.store, self.layout, "t")
        self.observer = AccessObserver(threshold_epochs=threshold)
        self.observer.watch_table(self.table)
        self.gc = GarbageCollector(self.tm, access_observer=self.observer)
        self.transformer = BlockTransformer(
            self.tm,
            self.gc,
            self.observer,
            compaction_group_size=group_size,
            cold_format=cold_format,
        )

    def fill(self, n_blocks=3, delete_fraction=0.3, seed=7, long_values=True):
        """Populate ``n_blocks`` worth of tuples and delete a fraction."""
        rng = random.Random(seed)
        txn = self.tm.begin()
        slots = []
        for i in range(self.layout.num_slots * n_blocks):
            payload = (
                f"tuple-{i}-with-a-long-payload-string" if long_values else f"v{i % 10}"
            )
            slots.append(self.table.insert(txn, {0: i, 1: payload}))
        self.tm.commit(txn)
        if delete_fraction:
            txn = self.tm.begin()
            victims = rng.sample(slots, int(len(slots) * delete_fraction))
            for slot in victims:
                self.table.delete(txn, slot)
            self.tm.commit(txn)
            slots = [s for s in slots if s not in set(victims)]
        return slots

    def transform_all(self, passes=6):
        for _ in range(passes):
            self.transformer.run_pass()

    def visible_ids(self):
        txn = self.tm.begin()
        ids = sorted(row.get(0) for _, row in self.table.scan(txn))
        self.tm.commit(txn)
        return ids


@pytest.fixture
def engine():
    return MiniEngine()
