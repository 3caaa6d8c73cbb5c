"""Array I/O is billed where it is spent, to whoever asked for it.

A read is counted by the code that does it into the bag of the caller
that caused it; reads nobody owns (``get_cell``, the read-modify-write
of ``write_cell``, an ADT function called bare) fall to the array's own
registered lifetime bag.  So nothing an operator reads is lost to the
registry, nothing somebody else read is billed to it, and — no bag ever
being emptied — no registry total ever drops.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench import run_cold
from repro.core import ConsolidationSpec, compute_cube, consolidate
from repro.core.meta import NO_CHUNK
from repro.data import (
    cube_schema_for,
    generate_dimension_rows,
    generate_fact_rows,
)
from repro.olap import ConsolidationQuery, OlapEngine, SelectionPredicate
from repro.serve import QueryService

from .conftest import CONFIG

SPECS = [ConsolidationSpec.level(f"h{d}1") for d in range(3)]


def build_engine():
    engine = OlapEngine(page_size=1024, pool_bytes=1024 * 1024)
    engine.load_cube(
        cube_schema_for(CONFIG),
        generate_dimension_rows(CONFIG),
        generate_fact_rows(CONFIG),
        chunk_shape=CONFIG.chunk_shape,
    )
    return engine


@pytest.fixture
def fresh():
    engine = build_engine()
    yield engine
    engine.close_shards()


def non_empty_chunks(array):
    return sum(
        1 for oid, _, n in array.chunk_directory().tolist() if oid != NO_CHUNK and n
    )


def rollup_query(**group_by):
    return ConsolidationQuery.build("cube", group_by=group_by)


class TestNothingIsLost:
    def test_materialize_shows_in_the_registry(self, fresh):
        """A grain built by ``GrainStore.rows_for`` bills its walk to
        the ``rollup_build`` bag: every chunk read reaches the registry,
        none lands in the array's own bag."""
        array = fresh.cube("cube").array
        expected = non_empty_chunks(array)
        fresh.declare_grain("cube", "by_h1", {"dim0": "h01", "dim1": "h11"})
        with QueryService(fresh) as service:
            array.invalidate_caches()
            own_before = array.counters.get("chunks_read")
            before = fresh.db.metrics.merged_snapshot()
            with service.engine_access("cube") as state:
                fresh.grains.rows_for(state, "by_h1")
            after = fresh.db.metrics.merged_snapshot()
        assert after["chunks_read"] - before.get("chunks_read", 0) == expected
        assert after["dir_loads"] - before.get("dir_loads", 0) == 1
        assert after["cells_scanned"] - before.get("cells_scanned", 0) == (
            array.n_valid
        )
        assert array.counters.get("chunks_read") == own_before

    def test_an_unowned_cube_scan_falls_to_the_arrays_bag(self, fresh):
        array = fresh.cube("cube").array
        expected = non_empty_chunks(array)
        before = fresh.db.metrics.merged_snapshot()
        own_before = array.counters.get("chunks_read")
        compute_cube(array, SPECS)
        after = fresh.db.metrics.merged_snapshot()
        assert after["chunks_read"] - before.get("chunks_read", 0) == expected
        assert array.counters.get("chunks_read") - own_before == expected

    def test_bare_adt_reads_fall_to_the_arrays_bag(self, fresh):
        array = fresh.cube("cube").array
        before = array.counters.get("chunks_read")
        array.sum_region([None] * 3)
        assert array.counters.get("chunks_read") - before == (
            non_empty_chunks(array)
        )


class TestNothingIsMisbilled:
    def test_consolidate_bills_only_what_it_read(self, fresh):
        array = fresh.cube("cube").array
        expected = non_empty_chunks(array)
        first_fact = generate_fact_rows(CONFIG)[0]
        array.read_chunk(0)
        array.write_cell(tuple(first_fact[:3]), (first_fact[3] + 1,))
        # cold: around the chunk cache the reads above went through
        result = consolidate(array, SPECS, cold=True)
        assert result.counters.get("chunks_read") == expected

    def test_a_passed_bag_is_the_only_one_billed(self, fresh):
        from repro.util.stats import Counters

        array = fresh.cube("cube").array
        own_before = array.counters.snapshot()
        bag = Counters()
        compute_cube(array, SPECS, counters=bag)
        assert bag.get("chunks_read") == non_empty_chunks(array)
        assert array.counters.snapshot() == own_before


_OPS = st.lists(
    st.sampled_from(
        [
            "query",
            "query_sharded",
            "query_selective",
            "cube",
            "write",
            "get",
        ]
    ),
    min_size=1,
    max_size=12,
)


@settings(max_examples=15, deadline=None)
@given(_OPS)
def test_engine_totals_never_drop(ops):
    """Any interleaving of engine operations only moves totals up."""
    engine = build_engine()
    array = engine.cube("cube").array
    facts = generate_fact_rows(CONFIG)
    plain = rollup_query(dim0="h01", dim1="h11")
    selective = ConsolidationQuery.build(
        "cube",
        group_by={"dim0": "h01"},
        selections=[SelectionPredicate.in_list("dim1", "h11", "AA0", "AA1")],
    )
    try:
        previous = engine.db.metrics.merged_snapshot()
        for step, op in enumerate(ops):
            if op == "query":
                engine.query(plain, backend="array", cold=step % 2 == 0)
            elif op == "query_sharded":
                engine.query(
                    plain,
                    backend="array",
                    shards=2,
                    executor=("local", "thread")[step % 2],
                )
            elif op == "query_selective":
                run_cold(engine, selective, "naive")  # abl5's baseline
            elif op == "cube":
                compute_cube(array, SPECS)
            elif op == "write":
                row = facts[step % len(facts)]
                engine.write_cell("cube", tuple(row[:3]), (step + 1,))
            elif op == "get":
                array.get_cell(tuple(facts[step % len(facts)][:3]))
            totals = engine.db.metrics.merged_snapshot()
            dropped = {
                key: (value, totals.get(key, 0))
                for key, value in previous.items()
                if totals.get(key, 0) < value
            }
            assert dropped == {}, f"after {op!r} (step {step})"
            previous = totals
    finally:
        engine.close_shards()
