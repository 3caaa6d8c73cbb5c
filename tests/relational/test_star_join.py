"""Tests for the Starjoin consolidation operator."""

import pytest

from repro.errors import QueryError
from repro.relational import star_join_consolidate
from repro.relational.star_join import build_dimension_hash
from repro.util.stats import Counters

from .conftest import h1, h2, join_specs, reference_consolidation


class TestStarJoin:
    def test_matches_reference_on_h1(self, star_db):
        _, dims, fact, fact_rows = star_db
        rows = star_join_consolidate(fact, join_specs(dims), "volume")
        expected = reference_consolidation(
            fact_rows, [lambda k, d=d: h1(d, k) for d in range(3)]
        )
        assert rows == expected

    def test_matches_reference_on_h2(self, star_db):
        _, dims, fact, fact_rows = star_db
        rows = star_join_consolidate(fact, join_specs(dims, level=2), "volume")
        expected = reference_consolidation(
            fact_rows, [lambda k, d=d: h2(d, k) for d in range(3)]
        )
        assert rows == expected

    def test_subset_of_dimensions_aggregates_rest(self, star_db):
        _, dims, fact, fact_rows = star_db
        specs = join_specs(dims)[:2]
        rows = star_join_consolidate(fact, specs, "volume")
        expected = reference_consolidation(
            fact_rows[:], [lambda k: h1(0, k), lambda k: h1(1, k)]
        )
        assert rows == expected

    def test_total_volume_preserved(self, star_db):
        _, dims, fact, fact_rows = star_db
        rows = star_join_consolidate(fact, join_specs(dims), "volume")
        assert sum(r[-1] for r in rows) == sum(r[3] for r in fact_rows)

    def test_count_aggregate(self, star_db):
        _, dims, fact, fact_rows = star_db
        rows = star_join_consolidate(
            fact, join_specs(dims), "volume", aggregate="count"
        )
        assert sum(r[-1] for r in rows) == len(fact_rows)

    def test_counters_populated(self, star_db):
        _, dims, fact, fact_rows = star_db
        counters = Counters()
        star_join_consolidate(fact, join_specs(dims), "volume", counters=counters)
        assert counters.get("fact_tuples_scanned") == len(fact_rows)
        assert counters.get("result_groups") > 0

    def test_dangling_fact_tuples_skipped(self, star_db):
        _, dims, fact, fact_rows = star_db
        fact.append((999, 0, 0, 5))  # d0=999 has no dimension row
        counters = Counters()
        rows = star_join_consolidate(
            fact, join_specs(dims), "volume", counters=counters
        )
        assert counters.get("dangling_fact_tuples") == 1
        assert sum(r[-1] for r in rows) == sum(r[3] for r in fact_rows)

    def test_no_dimensions_rejected(self, star_db):
        _, _, fact, _ = star_db
        with pytest.raises(QueryError):
            star_join_consolidate(fact, [], "volume")

    def test_build_dimension_hash(self, star_db):
        _, dims, _, _ = star_db
        spec = join_specs(dims)[0]
        table = build_dimension_hash(spec)
        assert table[0] == h1(0, 0)
        assert len(table) == len(dims[0])
