"""Tests for the fluent Query builder."""

import pytest

from repro import BOOL, ColumnSpec, Database, FLOAT64, INT64, UTF8
from repro.errors import StorageError
from repro.query import Query


@pytest.fixture(scope="module")
def sales_db():
    db = Database(logging_enabled=False, cold_threshold_epochs=1)
    info = db.create_table(
        "sales",
        [
            ColumnSpec("id", INT64),
            ColumnSpec("region", INT64),
            ColumnSpec("amount", FLOAT64),
            ColumnSpec("note", UTF8),
        ],
        block_size=1 << 13,
        watch_cold=True,
    )
    with db.transaction() as txn:
        for i in range(1000):
            info.table.insert(
                txn, {0: i, 1: i % 5, 2: float(i % 100), 3: f"note-{i}"}
            )
    db.freeze_table("sales")
    return db


REFERENCE = [(i, i % 5, float(i % 100), f"note-{i}") for i in range(1000)]


class TestAggregates:
    def test_unfiltered_sum(self, sales_db):
        expected = sum(r[2] for r in REFERENCE)
        assert Query(sales_db, "sales").sum("amount") == pytest.approx(expected)

    def test_count_with_predicate(self, sales_db):
        got = Query(sales_db, "sales").where("region", "==", 2).count()
        assert got == sum(1 for r in REFERENCE if r[1] == 2)

    def test_conjunction(self, sales_db):
        query = (
            Query(sales_db, "sales")
            .where("region", "==", 1)
            .where("amount", ">", 50.0)
        )
        expected = [r for r in REFERENCE if r[1] == 1 and r[2] > 50.0]
        assert query.count() == len(expected)
        assert query.sum("amount") == pytest.approx(sum(r[2] for r in expected))

    def test_min_max_avg(self, sales_db):
        query = Query(sales_db, "sales").where("region", "==", 0)
        amounts = [r[2] for r in REFERENCE if r[1] == 0]
        assert query.min("amount") == min(amounts)
        assert query.max("amount") == max(amounts)
        assert query.avg("amount") == pytest.approx(sum(amounts) / len(amounts))

    def test_group_by_sum(self, sales_db):
        got = Query(sales_db, "sales").group_by("region").sum("amount")
        expected: dict[int, float] = {}
        for _, region, amount, _ in REFERENCE:
            expected[region] = expected.get(region, 0.0) + amount
        assert got == pytest.approx(expected)

    def test_group_by_with_filter(self, sales_db):
        got = (
            Query(sales_db, "sales")
            .where("amount", ">=", 90.0)
            .group_by("region")
            .count()
        )
        expected: dict[int, int] = {}
        for _, region, amount, _ in REFERENCE:
            if amount >= 90.0:
                expected[region] = expected.get(region, 0) + 1
        assert got == expected


class TestRows:
    def test_to_rows_names_and_values(self, sales_db):
        rows = Query(sales_db, "sales").where("id", "==", 7).to_rows()
        assert rows == [{"id": 7, "region": 2, "amount": 7.0, "note": "note-7"}]

    def test_limit(self, sales_db):
        rows = Query(sales_db, "sales").to_rows(limit=5)
        assert len(rows) == 5

    def test_varlen_predicate(self, sales_db):
        rows = Query(sales_db, "sales").where("note", "==", "note-123").to_rows()
        assert [r["id"] for r in rows] == [123]

    def test_bool_with_nulls_matches_select(self):
        db = Database(logging_enabled=False, cold_threshold_epochs=1)
        info = db.create_table(
            "flags",
            [ColumnSpec("id", INT64), ColumnSpec("flag", BOOL)],
            block_size=1 << 12,
            watch_cold=True,
        )
        flag = lambda i: None if i % 3 == 0 else i % 2 == 0  # noqa: E731
        with db.transaction() as txn:
            slots = [info.table.insert(txn, {0: i, 1: flag(i)}) for i in range(600)]
        db.freeze_table("flags")
        with db.transaction() as txn:  # a hot block beside the frozen ones
            slots += [info.table.insert(txn, {0: i, 1: flag(i)}) for i in range(600, 650)]
        txn = db.begin()
        expected = [
            {"id": row.get(0), "flag": row.get(1)}
            for row in (info.table.select(txn, slot) for slot in slots)
        ]
        db.commit(txn)
        assert any(b.state.name == "FROZEN" for b in info.table.blocks)
        rows = Query(db, "flags").to_rows()
        assert rows == expected
        assert [type(r["flag"]) for r in rows] == [type(r["flag"]) for r in expected]
        assert {type(r["flag"]) for r in rows} == {bool, type(None)}
        wanted = [r for r in expected if r["flag"] is True and r["id"] >= 100]
        query = Query(db, "flags").where("id", ">=", 100).where("flag", "==", True)
        assert query.to_rows(limit=7) == wanted[:7]
        assert query.to_rows(limit=0) == []


class TestPruningIntegration:
    def test_range_predicates_prune_blocks(self, sales_db):
        query = Query(sales_db, "sales").where_between("id", 0, 50)
        assert query.count() == 51
        scanner = query._scanner([0])
        list(scanner.batches())
        assert scanner.blocks_pruned >= 1

    def test_equality_predicate_prunes(self, sales_db):
        query = Query(sales_db, "sales").where("id", "==", 999)
        scanner = query._scanner([0])
        list(scanner.batches())
        assert scanner.blocks_pruned >= 1
        assert query.count() == 1


class TestValidation:
    def test_bad_operator(self, sales_db):
        with pytest.raises(StorageError):
            Query(sales_db, "sales").where("id", "~", 1)

    def test_unknown_column(self, sales_db):
        with pytest.raises(Exception):
            Query(sales_db, "sales").where("nope", "==", 1)

    def test_results_match_transactional_scan(self, sales_db):
        # The builder must agree with the MVCC scan it bypasses for frozen
        # blocks.
        txn = sales_db.begin()
        table = sales_db.catalog.table("sales")
        expected = sum(
            row.get(2)
            for _, row in table.scan(txn, [1, 2])
            if row.get(1) == 3
        )
        sales_db.commit(txn)
        got = Query(sales_db, "sales").where("region", "==", 3).sum("amount")
        assert got == pytest.approx(expected)
