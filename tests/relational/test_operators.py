"""Tests for Volcano-style operators and the left-deep plan."""

import pytest

from repro.errors import QueryError
from repro.relational import (
    Database,
    Filter,
    HashGroupBy,
    HashJoin,
    Project,
    Schema,
    SeqScan,
)
from repro.relational.operators import left_deep_consolidation

from .conftest import h1, reference_consolidation


@pytest.fixture
def tiny_db():
    db = Database(page_size=1024, pool_bytes=128 * 1024)
    left = db.create_heap_table(
        "left", Schema([("id", "int32"), ("tag", "str:4")])
    )
    left.insert_many([(1, "a"), (2, "b"), (3, "c")])
    right = db.create_heap_table(
        "right", Schema([("ref", "int32"), ("value", "int32")])
    )
    right.insert_many([(1, 10), (1, 11), (2, 20), (9, 90)])
    return db


class TestScanFilterProject:
    def test_seq_scan_names_unqualified(self, tiny_db):
        scan = SeqScan(tiny_db.table("left"))
        assert scan.names == ("id", "tag")
        assert list(scan) == [(1, "a"), (2, "b"), (3, "c")]

    def test_seq_scan_alias_qualifies(self, tiny_db):
        scan = SeqScan(tiny_db.table("left"), alias="l")
        assert scan.names == ("l.id", "l.tag")

    def test_filter_equals(self, tiny_db):
        scan = SeqScan(tiny_db.table("right"))
        out = list(Filter(scan, equals={"ref": 1}))
        assert out == [(1, 10), (1, 11)]

    def test_filter_predicate(self, tiny_db):
        scan = SeqScan(tiny_db.table("right"))
        out = list(Filter(scan, predicate=lambda r: r[1] > 15))
        assert out == [(2, 20), (9, 90)]

    def test_filter_requires_exactly_one_condition(self, tiny_db):
        scan = SeqScan(tiny_db.table("left"))
        with pytest.raises(QueryError):
            Filter(scan)
        with pytest.raises(QueryError):
            Filter(scan, predicate=lambda r: True, equals={"id": 1})

    def test_project_reorders(self, tiny_db):
        scan = SeqScan(tiny_db.table("left"))
        out = list(Project(scan, ["tag", "id"]))
        assert out == [("a", 1), ("b", 2), ("c", 3)]

    def test_project_unknown_column(self, tiny_db):
        scan = SeqScan(tiny_db.table("left"))
        with pytest.raises(QueryError):
            Project(scan, ["nope"])


class TestHashJoin:
    def test_inner_join(self, tiny_db):
        left = SeqScan(tiny_db.table("left"), alias="l")
        right = SeqScan(tiny_db.table("right"), alias="r")
        join = HashJoin(left, right, ["l.id"], ["r.ref"])
        assert sorted(join) == [
            (1, "a", 1, 10),
            (1, "a", 1, 11),
            (2, "b", 2, 20),
        ]

    def test_join_counts_build_rows(self, tiny_db):
        left = SeqScan(tiny_db.table("left"))
        right = SeqScan(tiny_db.table("right"), alias="r")
        join = HashJoin(left, right, ["id"], ["r.ref"])
        list(join)
        assert join.build_rows_materialized == 3

    def test_key_arity_mismatch(self, tiny_db):
        left = SeqScan(tiny_db.table("left"))
        right = SeqScan(tiny_db.table("right"), alias="r")
        with pytest.raises(QueryError):
            HashJoin(left, right, ["id"], [])


class TestHashGroupBy:
    def test_group_and_sum(self, tiny_db):
        scan = SeqScan(tiny_db.table("right"))
        out = list(HashGroupBy(scan, ["ref"], [("sum", "value")]))
        assert out == [(1, 21), (2, 20), (9, 90)]

    def test_multiple_aggregates(self, tiny_db):
        scan = SeqScan(tiny_db.table("right"))
        out = list(
            HashGroupBy(scan, ["ref"], [("count", "value"), ("max", "value")])
        )
        assert out == [(1, 2, 11), (2, 1, 20), (9, 1, 90)]

    def test_output_names(self, tiny_db):
        scan = SeqScan(tiny_db.table("right"))
        op = HashGroupBy(scan, ["ref"], [("sum", "value")])
        assert op.names == ("ref", "sum(value)")


class TestLeftDeepPlan:
    def test_matches_reference_consolidation(self, star_db):
        db, dims, fact, fact_rows = star_db
        fact_scan = SeqScan(fact, alias="f")
        dim_scans = [
            (SeqScan(dims[d], alias=f"dim{d}"), f"dim{d}.d{d}", f"f.d{d}")
            for d in range(3)
        ]
        plan = left_deep_consolidation(
            fact_scan,
            dim_scans,
            [f"dim{d}.h{d}1" for d in range(3)],
            "f.volume",
        )
        expected = reference_consolidation(
            fact_rows, [lambda k, d=d: h1(d, k) for d in range(3)]
        )
        assert list(plan) == expected

    def test_needs_a_dimension(self, star_db):
        _, _, fact, _ = star_db
        with pytest.raises(QueryError):
            left_deep_consolidation(SeqScan(fact), [], [], "volume")
