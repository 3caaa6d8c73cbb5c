"""One query, one set of counters — however the selection is run.

A vectorized array selection is one kernel over the chunk walk, and a
partition is a sub-range of the same walk, so what a query reports does
not depend on how it was split:

- ``cells_scanned`` — stored cells folded into the result (whichever
  direction the kernel took on a chunk);
- ``cells_probed`` — cross-product elements binary-searched (probe
  direction only);
- ``cross_product_size`` — billed once, by whoever resolves the final
  index lists;
- ``chunks_read`` — payloads fetched.

(The same one-dimension selection used to report ``cells_probed`` and
``cross_product_size`` but no ``cells_scanned`` at ``shards=1``, and
``cells_scanned`` but neither other key at ``shards=2``.)
"""

import math

import pytest

from repro.olap import ConsolidationQuery, SelectionPredicate

KEYS = ("cells_scanned", "cells_probed", "cross_product_size", "chunks_read")
RUNS = [
    (shards, executor)
    for shards in (1, 2, 3)
    for executor in ("local", "thread")
]

#: a one-dimension selection (more candidates than stored cells in every
#: chunk: all filtered) and a three-dimension one (a handful of
#: candidates per chunk: probed)
SELECTIONS = {
    "one_dimension": [("dim0", "h01", ["AA0"])],
    "three_dimensions": [
        ("dim0", "h01", ["AA0"]),
        ("dim1", "h11", ["AA1"]),
        ("dim2", "h21", ["AA2", "AA0"]),
    ],
}


def query(selections):
    return ConsolidationQuery.build(
        "cube",
        group_by={"dim1": "h11"},
        selections=[
            SelectionPredicate.in_list(dim, attr, *values)
            for dim, attr, values in selections
        ],
    )


def billed(result):
    return {key: result.stats.get(key, 0) for key in KEYS}


def matching_cells(engine, fact_rows, selections):
    """Fact rows the selection keeps, and its cross-product size."""
    state = engine.cube("cube")
    chosen = {}
    for dim, attr, values in selections:
        attr_map = engine._dimension_attr_map(state, dim, attr)
        chosen[dim] = {key for key, value in attr_map.items() if value in values}
    names = [dim.name for dim in state.schema.dimensions]
    kept = sum(
        all(
            row[d] in chosen[name]
            for d, name in enumerate(names)
            if name in chosen
        )
        for row in fact_rows
    )
    cross = math.prod(
        len(chosen[name]) if name in chosen else size
        for name, size in zip(names, state.array.geometry.shape)
    )
    return kept, cross


@pytest.mark.parametrize("name", sorted(SELECTIONS))
def test_a_selection_bills_the_same_however_it_is_split(
    engine, fact_rows, name
):
    selections = SELECTIONS[name]
    reports = {}
    rows = {}
    for shards, executor in RUNS:
        result = engine.query(
            query(selections),
            backend="array",
            shards=shards,
            executor=executor,
            cold=True,
        )
        reports[shards, executor] = billed(result)
        rows[shards, executor] = result.rows
    single = reports[1, "local"]
    assert all(report == single for report in reports.values()), reports
    assert all(r == rows[1, "local"] for r in rows.values())

    kept, cross = matching_cells(engine, fact_rows, selections)
    assert single["cells_scanned"] == kept
    assert single["cross_product_size"] == cross
    # a probe searches a chunk's whole share of the cross product
    assert single["cells_probed"] <= cross


def test_the_two_selections_take_different_directions(engine):
    """The fixture exercises both: nothing probed for one dimension,
    something probed for three."""
    one, three = (
        billed(
            engine.query(
                query(SELECTIONS[name]), backend="array"
            )
        )
        for name in ("one_dimension", "three_dimensions")
    )
    assert one["cells_probed"] == 0 and one["cells_scanned"] > 0
    assert three["cells_probed"] > 0
