"""RollupRouter over the engine's grains: derive maps, coverage,
routing, re-aggregation correctness against the consolidation engine,
invalidation, and the inline rebuild of a grain the write left behind."""

import sys
import threading

import numpy as np

from repro.api.model import RollupDecl
from repro.data import generate_fact_rows
from repro.olap import ConsolidationQuery
from repro.olap.query import SelectionPredicate

from .conftest import CONFIG


def _valid_keys():
    return tuple(generate_fact_rows(CONFIG)[0][:3])


def _cube(endpoint):
    return endpoint.model.cube("sales")


def _base_rows(service, group_by, aggregate="sum", selections=None):
    query = ConsolidationQuery.build(
        CONFIG.name,
        group_by=dict(group_by),
        selections=selections or [],
        aggregate=aggregate,
    )
    # pinned: auto would answer from the grain the answer is checked against
    return sorted(service.execute(query, "array").rows)


class TestDeriveMaps:
    def test_h01_to_h02_is_functional(self, stack):
        engine, _, _ = stack
        mapping = engine.grains.derive_map(CONFIG.name, "dim0", "h01", "h02")
        # fanout1=3, fanout2=2: AA0/AA2 -> BB0, AA1 -> BB1
        assert mapping == {"AA0": "BB0", "AA1": "BB1", "AA2": "BB0"}

    def test_h02_to_h01_is_not_functional(self, stack):
        engine, _, _ = stack
        # BB0 would need to map to both AA0 and AA2
        assert (
            engine.grains.derive_map(CONFIG.name, "dim0", "h02", "h01")
            is None
        )

    def test_identity_returns_none(self, stack):
        engine, _, _ = stack
        assert (
            engine.grains.derive_map(CONFIG.name, "dim0", "h01", "h01")
            is None
        )

    def test_cardinality(self, stack):
        engine, _, _ = stack
        grains = engine.grains
        assert grains.cardinality(CONFIG.name, "dim0", "d0") == 6
        assert grains.cardinality(CONFIG.name, "dim0", "h01") == 3
        assert grains.cardinality(CONFIG.name, "dim0", "h02") == 2
        assert grains.cardinality(CONFIG.name, "dim2", "d2") == 10


class TestRouting:
    def test_coarsest_request_picks_smallest_covering(self, stack):
        _, _, endpoint = stack
        cube = _cube(endpoint)
        decision = endpoint.router.route(
            cube, [("dim0", "h02")], [], "sum"
        )
        assert decision.source == "rollup"
        # coarse estimates 2*2*2=8 rows, mid01 3*3=9: coarse wins
        assert decision.rollup.name == "coarse"
        assert decision.candidates == ("coarse", "mid01")
        assert decision.estimated_rows == 8

    def test_finer_level_excludes_coarser_grain(self, stack):
        _, _, endpoint = stack
        decision = endpoint.router.route(
            _cube(endpoint), [("dim0", "h01")], [], "sum"
        )
        assert decision.source == "rollup"
        assert decision.rollup.name == "mid01"

    def test_key_grain_falls_back_to_base(self, stack):
        _, _, endpoint = stack
        decision = endpoint.router.route(
            _cube(endpoint), [("dim0", "d0")], [], "sum"
        )
        assert decision.source == "base"
        assert "no declared rollup covers" in decision.reason

    def test_avg_routes_and_equals_base(self, stack):
        _, service, endpoint = stack
        cube, router = _cube(endpoint), endpoint.router
        decision = router.route(cube, [("dim0", "h02")], [], "avg")
        assert decision.source == "rollup"
        assert decision.rollup.name == "coarse"
        # avg rides the grain's sum and count columns
        stored = router.rows_for(cube, decision.rollup, "avg")
        routed = router.scan(
            cube, decision.rollup, stored, [("dim0", "h02")], [], "avg", [0]
        )
        assert routed == _base_rows(
            service, [("dim0", "h02")], aggregate="avg"
        )

    def test_cut_dimension_counts_as_referenced(self, stack):
        _, _, endpoint = stack
        # dim2 at h21 is finer than coarse's h22 and absent from mid01
        cut = SelectionPredicate.in_list("dim2", "h21", "AA0")
        decision = endpoint.router.route(
            _cube(endpoint), [("dim0", "h02")], [cut], "sum"
        )
        assert decision.source == "base"


class TestScanCorrectness:
    """Routed answers must be cell-for-cell equal to base consolidation."""

    def _routed(self, endpoint, rollup_name, group_by, cuts, aggregate):
        cube = _cube(endpoint)
        rollup = next(
            r for r in cube.rollups if r.name == rollup_name
        )
        stored = endpoint.router.rows_for(cube, rollup, aggregate)
        return endpoint.router.scan(
            cube, rollup, stored, group_by, cuts, aggregate, [0]
        )

    def test_sum_from_coarse_grain(self, stack):
        _, service, endpoint = stack
        routed = self._routed(
            endpoint, "coarse", [("dim0", "h02")], [], "sum"
        )
        assert routed == _base_rows(service, [("dim0", "h02")])

    def test_sum_with_derived_attribute(self, stack):
        _, service, endpoint = stack
        # mid01 stores h01/h11; the request asks h02 (derived)
        routed = self._routed(
            endpoint, "mid01", [("dim0", "h02")], [], "sum"
        )
        assert routed == _base_rows(service, [("dim0", "h02")])

    def test_count_rerolls_as_sum_of_counts(self, stack):
        _, service, endpoint = stack
        routed = self._routed(
            endpoint, "coarse", [("dim1", "h12")], [], "count"
        )
        assert routed == _base_rows(
            service, [("dim1", "h12")], aggregate="count"
        )

    def test_min_and_max_reroll(self, stack):
        _, service, endpoint = stack
        for aggregate in ("min", "max"):
            routed = self._routed(
                endpoint, "coarse", [("dim0", "h02"), ("dim1", "h12")],
                [], aggregate,
            )
            assert routed == _base_rows(
                service, [("dim0", "h02"), ("dim1", "h12")],
                aggregate=aggregate,
            )

    def test_key_grain_answers_a_coarser_level(self, stack):
        _, service, endpoint = stack
        cube, router = _cube(endpoint), endpoint.router
        keys = RollupDecl("keys", (("dim0", "d0"), ("dim1", "d1")))
        group_by = [("dim0", "h02"), ("dim1", "h11")]
        routed = router.scan(
            cube, keys, router.rows_for(cube, keys), group_by, [], "sum", [0]
        )
        assert routed == _base_rows(service, group_by)

    def test_in_list_cut_filters_derived_values(self, stack):
        _, service, endpoint = stack
        cut = SelectionPredicate.in_list("dim1", "h11", "AA1")
        routed = self._routed(
            endpoint, "mid01", [("dim0", "h01")], [cut], "sum"
        )
        assert routed == _base_rows(
            service,
            [("dim0", "h01")],
            selections=[SelectionPredicate.in_list("dim1", "h11", "AA1")],
        )

    def test_range_cut(self, stack):
        _, service, endpoint = stack
        cut = SelectionPredicate.between("dim1", "h11", "AA0", "AA1")
        routed = self._routed(
            endpoint, "mid01", [("dim0", "h01")], [cut], "sum"
        )
        assert routed == _base_rows(
            service,
            [("dim0", "h01")],
            selections=[
                SelectionPredicate.between("dim1", "h11", "AA0", "AA1")
            ],
        )


def _same_columns(grain, other):
    return np.array_equal(grain.fold.counts, other.fold.counts) and all(
        np.array_equal(column, other_column)
        for columns, others in zip(grain.fold.columns, other.fold.columns)
        for column, other_column in zip(columns, others)
    )


def _column(grain, name):
    """One of a grain's ``sum``/``min``/``max`` columns, every measure's."""
    return np.stack(
        [columns[("sum", "min", "max").index(name)] for columns in grain.fold.columns]
    )


def _from_scratch(router, cube, rollup):
    """The grain as one walk of the base array builds it now."""
    router.reclaim_grains(0)
    return router.rows_for(cube, rollup, "sum")


class TestInvalidation:
    def test_write_patches_every_grain_equal_to_a_rebuild(self, stack):
        _, service, endpoint = stack
        cube, router = _cube(endpoint), endpoint.router
        before = {r.name: router.try_rows(cube, r, "sum") for r in cube.rollups}
        assert None not in before.values()  # built at start

        # overwrite one valid cell so the total (and the max) moves
        service.write_cell(CONFIG.name, _valid_keys(), (999_999,))

        # no stale window: the write itself moved every grain
        after = {r.name: router.try_rows(cube, r, "sum") for r in cube.rollups}
        assert None not in after.values()
        snapshot = router.counters.snapshot()
        assert snapshot["rollup.deltas"] == len(cube.rollups)
        assert snapshot.get("rollup.stale", 0) == 0
        for rollup in cube.rollups:
            patched = after[rollup.name]
            # what was handed out earlier did not change under its holder
            assert patched is not before[rollup.name]
            assert int(_column(before[rollup.name], "max").max()) < 999_999
            assert int(_column(patched, "max").max()) == 999_999
            assert _same_columns(patched, _from_scratch(router, cube, rollup))

    def test_a_fold_that_cannot_be_followed_is_rebuilt_by_the_write(self, stack):
        _, service, endpoint = stack
        cube, router = _cube(endpoint), endpoint.router
        service.write_cell(CONFIG.name, _valid_keys(), (999_999,))
        rebuilds = router.counters.get("rollup.rebuilds")

        # the cell leaves the max it held: a tie may remain, so only a
        # rebuild can tell what its grain cells' max is now
        service.write_cell(CONFIG.name, _valid_keys(), (5,))
        assert router.counters.get("rollup.delta_misses") == len(cube.rollups)
        assert router.counters.get("rollup.rebuilds") == rebuilds + len(cube.rollups)
        # a reader finds after the write what it found before it: no
        # stale window, no fallback, and the grain a walk would build
        assert router.counters.get("rollup.stale") == 0
        grains = [router.try_rows(cube, rollup, "max") for rollup in cube.rollups]
        assert None not in grains
        for rollup, grain in zip(cube.rollups, grains):
            assert int(_column(grain, "max").max()) < 999_999
            assert _same_columns(grain, _from_scratch(router, cube, rollup))

    def test_sync_rows_for_rebuilds_inline(self, stack):
        _, service, endpoint = stack
        cube, router = _cube(endpoint), endpoint.router
        rollup = cube.rollups[1]
        before = router.rows_for(cube, rollup, "sum")
        # an append carries no cell delta: every grain falls behind
        service.append_facts(CONFIG.name, [_valid_keys() + (123_456,)])
        assert router.try_rows(cube, rollup, "sum") is None
        after = router.rows_for(cube, rollup, "sum")
        assert after.generation == before.generation + 1
        assert int(_column(after, "sum").sum()) == (
            int(_column(before, "sum").sum()) + 123_456
        )

    def test_resident_rollups_counts_entries(self, stack):
        _, _, endpoint = stack
        cube, router = _cube(endpoint), endpoint.router
        # one grain per declared rollup, every aggregate in it, from start
        assert len(router.grain_stats()) == len(cube.rollups) == 2
        router.rows_for(cube, cube.rollups[0], "sum")
        router.rows_for(cube, cube.rollups[0], "count")
        assert len(router.grain_stats()) == 2
        router.reclaim_grains(0)
        assert router.grain_stats() == {}


def _aggregate(endpoint, params):
    """``(route source, sorted rows)`` of one API request."""
    status, payload = endpoint.aggregate(
        "sales", lambda parser: parser.from_params(params)
    )
    assert status == 200
    labels = [f"{dim}.{attr}" for dim, attr in payload["drilldown"]]
    rows = sorted(
        tuple(cell[label] for label in labels + payload["measures"])
        for cell in payload["cells"]
    )
    return payload["route"]["source"], rows


def _no_refresh_thread():
    return all(t.name != "rollup-refresh" for t in threading.enumerate())


class TestInlineRebuild:
    """A grain behind the cube is rebuilt by the request that needs it."""

    def test_an_append_is_followed_by_the_next_request(self, stack):
        _, service, endpoint = stack
        cube, router = _cube(endpoint), endpoint.router
        rollup = cube.rollups[1]  # mid01: the grain dim0:h01 routes to
        before = router.try_rows(cube, rollup, "sum")
        # an append carries no cell delta: every grain falls behind, and
        # asking whether one is fresh builds nothing
        service.append_facts(CONFIG.name, [_valid_keys() + (999_999,)])
        assert router.try_rows(cube, rollup, "sum") is None
        assert router.try_rows(cube, rollup, "sum") is None
        assert _no_refresh_thread()
        source, rows = _aggregate(endpoint, {"drilldown": "dim0:h01"})
        assert source == "rollup"
        assert rows == _base_rows(service, [("dim0", "h01")])
        fresh = router.try_rows(cube, rollup, "sum")
        assert int(_column(fresh, "sum").sum()) == (
            int(_column(before, "sum").sum()) + 999_999
        )
        assert _same_columns(fresh, _from_scratch(router, cube, rollup))
        assert router.counters.get("rollup.refresh_failures") == 0
        assert endpoint.counters.get("api.stale_fallbacks") == 0
        assert _no_refresh_thread()

    def test_concurrent_requests_share_one_build(self, stack):
        _, service, endpoint = stack
        router = endpoint.router
        router.reclaim_grains(0)
        rebuilds = router.counters.get("rollup.rebuilds")
        params = {"drilldown": "dim0:h01"}
        start = threading.Barrier(8)
        answers = []

        def request():
            start.wait()
            answers.append(_aggregate(endpoint, params))

        threads = [threading.Thread(target=request) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        expected = _base_rows(service, [("dim0", "h01")])
        assert answers == [("rollup", expected)] * 8
        # the first waiter builds; the rest find it fresh under the lock
        assert router.counters.get("rollup.rebuilds") == rebuilds + 1
        assert _no_refresh_thread()
