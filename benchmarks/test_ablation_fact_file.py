"""Ablation abl4 — fact file vs slotted-page heap file (§4.4).

The fact file exists to (1) eliminate slotted-page overhead and
(2) give positional access.  Same fact data in both layouts; Starjoin
consolidation over each, plus footprints.

Expected shape: the heap file is larger (slot entries + page headers)
and its scan correspondingly slower; positional access is only possible
on the fact file.
"""

import pytest

from repro.bench import ExperimentTable, bench_settings
from repro.data import (
    cube_schema_for,
    dataset1,
    generate_dimension_rows,
    generate_fact_rows,
)
from repro.olap.star_schema import dimension_table_schema, fact_table_schema
from repro.relational import Database, DimensionJoinSpec, star_join_consolidate

SETTINGS = bench_settings()
CONFIG = dataset1(SETTINGS.scale)[1]
LAYOUTS = ["fact_file", "heap_file"]


@pytest.fixture(scope="module")
def tables():
    schema = cube_schema_for(CONFIG)
    db = Database(
        page_size=SETTINGS.page_size,
        pool_bytes=SETTINGS.pool_bytes,
        disk_model=SETTINGS.disk_model,
    )
    fact_rows = generate_fact_rows(CONFIG)
    dim_rows = generate_dimension_rows(CONFIG)
    dims = {}
    for dim in schema.dimensions:
        table = db.create_heap_table(
            f"dim.{dim.name}", dimension_table_schema(dim)
        )
        table.insert_many(dim_rows[dim.name])
        dims[dim.name] = table
    fact_schema = fact_table_schema(schema)
    fact = db.create_fact_table("fact.flat", fact_schema)
    fact.append_many(fact_rows)
    heap = db.create_heap_table("fact.heap", fact_schema)
    heap.insert_many(fact_rows)
    specs = [
        DimensionJoinSpec(dims[d.name], d.key, d.key, f"h{i}1")
        for i, d in enumerate(schema.dimensions)
    ]
    return db, {"fact_file": fact, "heap_file": heap}, specs


@pytest.fixture(scope="module")
def table():
    t = ExperimentTable(
        "abl4",
        "Fact file vs slotted-page heap file for the fact table",
        "layout",
        expected="heap file larger and slower to scan (slot overhead)",
    )
    yield t
    t.save()


@pytest.mark.parametrize("layout", LAYOUTS)
def test_ablation_fact_file(benchmark, tables, table, layout):
    db, facts, specs = tables
    fact = facts[layout]

    def run():
        db.cold_cache()
        import time

        io_before = db.sim_io_seconds()
        start = time.perf_counter()
        rows = star_join_consolidate(fact, specs, "volume")
        elapsed = time.perf_counter() - start
        return rows, elapsed, db.sim_io_seconds() - io_before

    rows, elapsed, sim_io = benchmark.pedantic(run, rounds=2, iterations=1)
    table.add_value(f"cost_s", layout, elapsed + sim_io)
    table.add_value("bytes", layout, fact.size_bytes())
    benchmark.extra_info["cost_s"] = elapsed + sim_io
    benchmark.extra_info["bytes"] = fact.size_bytes()
    assert rows  # both layouts produce the consolidation


def test_heap_layout_is_larger(tables):
    _, facts, _ = tables
    assert facts["heap_file"].size_bytes() > facts["fact_file"].size_bytes()
