"""Narrow key indices and bitmap codes never wrap.

``DimensionData.indices_of`` gives key indices in the narrowest signed
dtype that holds the dimension's key count, and ``factorize`` gives
bitmap codes in the narrowest unsigned dtype that holds the label
count.  The cubes here are 1-D and 2-D, and each dimension sits on one
side of a boundary: 127/128, 255/256 or 32 767/32 768 keys, and 255/256
labels.  Facts are drawn toward the last index and the last code.  Each
cube goes through ``load_cube`` → ``write_cell`` (an overwrite, then an
insert) → ``append_facts`` → ``rebuild_array``.  After every step, each
available backend must answer what a numpy fold of the rows gives.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.olap import ConsolidationQuery, OlapEngine, SelectionPredicate
from repro.olap.model import CubeSchema, DimensionDef, MeasureDef

KEY_COUNTS = (127, 128, 255, 256, 32767, 32768)
LABEL_COUNTS = (255, 256)


def key_at(dim, position):
    """A dimension's key at a position of its table: never the position
    itself, and in descending order for half the dimensions."""
    if dim["descending"]:
        position = dim["size"] - 1 - position
    return 3 * position - 5


def position_of(dim, keys):
    positions = (keys + 5) // 3
    return dim["size"] - 1 - positions if dim["descending"] else positions


def label(code):
    return f"L{code:03d}"


@st.composite
def cases(draw, first_size):
    """A cube whose first dimension has ``first_size`` keys, with or
    without a second one of at most 256 keys."""
    dims = []
    second = draw(st.lists(st.sampled_from(KEY_COUNTS[:4]), max_size=1))
    for size in [first_size] + second:
        labels = min(size, draw(st.sampled_from(LABEL_COUNTS)))
        dims.append(
            {
                "size": size,
                "labels": labels,
                "descending": draw(st.booleans()),
                "extent": -(-size // draw(st.integers(1, 16))),
            }
        )
    positions = [
        st.sampled_from(sorted({0, d["labels"] - 1, d["size"] - 2, d["size"] - 1}))
        | st.integers(0, d["size"] - 1)
        for d in dims
    ]
    cell = st.tuples(*positions)
    measure = st.integers(-1000, 1000)
    return {
        "dims": dims,
        "facts": draw(st.lists(cell, min_size=1, max_size=12, unique=True)),
        "measures": draw(st.lists(measure, min_size=12, max_size=12)),
        "insert": draw(cell),
        "appended": draw(st.lists(cell, min_size=1, max_size=8, unique=True)),
        "new": draw(st.tuples(measure, measure)),
        "selected": draw(st.lists(positions[0], min_size=1, max_size=3)),
    }


def numpy_fold(dims, rows, selected_codes):
    """Sum of the measure per label tuple over the rows whose first
    label is selected."""
    table = np.array(rows, dtype=np.int64)
    codes = [
        position_of(dim, table[:, d]) % dim["labels"] for d, dim in enumerate(dims)
    ]
    keep = np.isin(codes[0], selected_codes)
    shape = [dim["labels"] for dim in dims]
    groups, inverse = np.unique(
        np.ravel_multi_index([c[keep] for c in codes], shape), return_inverse=True
    )
    sums = np.zeros(len(groups), dtype=np.int64)
    np.add.at(sums, inverse, table[keep, -1])
    labels = zip(*np.unravel_index(groups, shape))
    return [tuple(map(label, group)) + (int(s),) for group, s in zip(labels, sums)]


def assert_backends_answer(engine, dims, rows, selected_codes):
    query = ConsolidationQuery.build(
        "c",
        {f"dim{d}": f"h{d}" for d in range(len(dims))},
        [SelectionPredicate.in_list("dim0", "h0", *map(label, selected_codes))],
    )
    expected = numpy_fold(dims, rows, selected_codes)
    for backend in sorted(engine.cube("c").available_backends()):
        answer = engine.query(query, backend=backend, cold=False).rows
        assert sorted(answer) == expected, backend


@pytest.mark.parametrize("size", KEY_COUNTS)
def test_narrow_indices_and_codes_answer_like_the_rows(size):
    # a dimension past 256 keys costs seconds of B-tree inserts a load
    examples = 10 if size <= 256 else 1
    settings(
        max_examples=examples,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )(given(cases(size))(drive))()


def drive(case):
    """Load, write, append and rebuild, checking every backend after each."""
    dims = case["dims"]
    schema = CubeSchema(
        "c",
        tuple(
            DimensionDef(f"dim{d}", key=f"d{d}", levels=((f"h{d}", "str:4"),))
            for d in range(len(dims))
        ),
        (MeasureDef("m", "int64"),),
    )
    dimension_rows = {
        f"dim{d}": [
            (key_at(dim, p), label(p % dim["labels"])) for p in range(dim["size"])
        ]
        for d, dim in enumerate(dims)
    }

    def keys(cell):
        return tuple(key_at(dim, p) for dim, p in zip(dims, cell))

    cells = {keys(cell): m for cell, m in zip(case["facts"], case["measures"])}
    selected = sorted({p % dims[0]["labels"] for p in case["selected"]})
    engine = OlapEngine(page_size=512, pool_bytes=1024 * 1024)
    engine.load_cube(
        schema, dimension_rows, [k + (m,) for k, m in cells.items()],
        chunk_shape=tuple(dim["extent"] for dim in dims),
        fact_btrees=True, fact_mbtree=True,
    )
    assert engine.cube("c").available_backends() == {
        "array", "starjoin", "bitmap", "btree", "mbtree", "leftdeep",
    }

    def check():
        rows = [k + (m,) for k, m in cells.items()]
        assert_backends_answer(engine, dims, rows, selected)

    check()
    for target, value in zip((next(iter(cells)), keys(case["insert"])), case["new"]):
        engine.write_cell("c", target, (value,))  # an overwrite, then an insert
        cells[target] = value
        check()
    appended = [keys(cell) for cell in case["appended"] if keys(cell) not in cells]
    if appended:
        engine.append_facts("c", [k + (7,) for k in appended])
        cells.update(dict.fromkeys(appended, 7))
        check()
    engine.rebuild_array("c")
    check()
