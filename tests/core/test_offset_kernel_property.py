"""The offset-native kernel equals the per-cell loop equals a brute fold.

One property over random geometries (ragged edge chunks, 1-D arrays,
size-1 axes, chunk shape == shape), every spec kind, the five
aggregates whose result does not depend on fold order, one or two
measures of either dtype, with and without a pushed-down selection: a
whole :func:`consolidate` == a fold over the raw fact tuples in plain
Python arithmetic, and so is :func:`scan_chunk_range` through either
kernel (``"vectorized"``, and the per-cell reference ``"interpreted"``)
over two chunk ranges merged with ``merge_from``, across an
``export_state`` → pickle → ``import_state`` hop (what the process
shard executor does).  ``var``/``stddev``, whose float result does
depend on order, have their own property
(``test_moment_columns_property``).

Warm equals cold: the same scan with a decoded-chunk cache attached,
run twice so the second run folds the cached records' kept offset
halves, leaves the cold scan's state bit for bit (:func:`warm_scans`).
Deterministic cases put a half's extent on each side of the
``uint8``/``uint16`` and ``uint16``/``uint32`` boundaries (256 and
65 536 sub-offsets), the dtypes the halves are kept in.

int64 measures range past 2**53 so a float64 detour would show; float
measures are multiples of 1/4 so their sums are exact in any order and
``==`` is the right comparison.
"""

import itertools
import pickle

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ConsolidationSpec, consolidate
from repro.core.builder import DimensionData, build_olap_array
from repro.core.consolidate import ResultAccumulator, scan_chunk_range
from repro.core.index_to_index import IndexToIndex
from repro.storage import ChunkCache
from repro.storage import BufferPool, FileManager, SimulatedDisk

AGGREGATES = ("sum", "count", "min", "max", "avg")

FOLDS = {
    "sum": sum,
    "count": len,
    "min": min,
    "max": max,
    "avg": lambda values: sum(values) / len(values),
}


@st.composite
def cases(draw):
    ndim = draw(st.integers(1, 4))
    shape = tuple(draw(st.integers(1, 5)) for _ in range(ndim))
    chunk_shape = tuple(
        draw(st.one_of(st.just(size), st.integers(1, size))) for size in shape
    )
    dtype = draw(st.sampled_from(["int64", "float64"]))
    if dtype == "int64":
        measure = st.integers(-(2**55), 2**55)
    else:
        measure = st.integers(-400, 400).map(lambda quarters: quarters / 4)
    cells = list(itertools.product(*[range(size) for size in shape]))
    chosen = draw(
        st.lists(st.sampled_from(cells), unique=True, max_size=len(cells))
    )
    # the loader reads the measure count off the first fact; none means 1
    n_measures = draw(st.integers(1, 2)) if chosen else 1
    facts = [
        cell + tuple(draw(measure) for _ in range(n_measures))
        for cell in chosen
    ]

    dimensions, specs, group_of = [], [], []
    for d, size in enumerate(shape):
        fanout = draw(st.integers(1, size))
        levels = [f"L{d}{key % fanout}" for key in range(size)]
        dimensions.append(
            DimensionData(f"dim{d}", list(range(size)), {"h1": levels})
        )
        kind = draw(st.sampled_from(["level", "key", "drop", "mapping"]))
        if kind == "level":
            specs.append(ConsolidationSpec.level("h1"))
            group_of.append(levels)
        elif kind == "key":
            specs.append(ConsolidationSpec.key())
            group_of.append(list(range(size)))
        elif kind == "drop":
            specs.append(ConsolidationSpec.drop())
            group_of.append(None)
        else:
            n_targets = draw(st.integers(1, size))
            mapping = [draw(st.integers(0, n_targets - 1)) for _ in range(size)]
            targets = [f"M{d}{t}" for t in range(n_targets)]
            specs.append(
                ConsolidationSpec.mapping(
                    IndexToIndex(np.array(mapping, dtype=np.int32), targets)
                )
            )
            group_of.append([targets[t] for t in mapping])

    aggregates = [draw(st.sampled_from(AGGREGATES)) for _ in range(n_measures)]
    allowed = draw(
        st.none()
        | st.tuples(
            *[
                st.lists(st.integers(0, size - 1), unique=True).map(sorted)
                for size in shape
            ]
        ).map(list)
    )
    return {
        "shape": shape,
        "chunk_shape": chunk_shape,
        "dtype": dtype,
        "facts": facts,
        "dimensions": dimensions,
        "specs": specs,
        "group_of": group_of,
        "aggregates": aggregates,
        "allowed": allowed,
        "cut": draw(st.floats(0, 1)),
    }


def brute_force(case, allowed):
    ndim = len(case["shape"])
    groups: dict[tuple, list[list]] = {}
    for fact in case["facts"]:
        if allowed is not None and any(
            fact[d] not in allowed[d] for d in range(ndim)
        ):
            continue
        key = tuple(
            group[fact[d]]
            for d, group in enumerate(case["group_of"])
            if group is not None
        )
        columns = groups.setdefault(key, [[] for _ in case["aggregates"]])
        for column, value in zip(columns, fact[ndim:]):
            column.append(value)
    return sorted(
        key
        + tuple(
            FOLDS[name](column)
            for name, column in zip(case["aggregates"], columns)
        )
        for key, columns in groups.items()
    )


def build(case):
    disk = SimulatedDisk(page_size=1024)
    fm = FileManager(BufferPool(disk, capacity_bytes=512 * 1024))
    return build_olap_array(
        fm,
        "cube",
        case["dimensions"],
        case["facts"],
        chunk_shape=case["chunk_shape"],
        dtype=case["dtype"],
    )


def assert_same_state(left, right):
    """``export_state()`` equal: same dtypes, same bytes."""
    a, b = left.export_state(), right.export_state()
    assert set(a) == set(b) == {"counts", "columns"}
    mine = [a["counts"], *itertools.chain.from_iterable(a["columns"])]
    theirs = [b["counts"], *itertools.chain.from_iterable(b["columns"])]
    assert len(mine) == len(theirs)
    for column, other in zip(mine, theirs):
        assert column.dtype == other.dtype
        assert column.tobytes() == other.tobytes()


def warm_scans(array, specs, aggregates, allowed=None):
    """The whole-range scan twice with a :class:`ChunkCache` attached:
    the first run fills the cache, the second folds its records — split
    once, when they were cached.  Returns both runs' accumulators."""
    cache = ChunkCache()
    array.chunk_cache = cache
    try:
        runs = []
        for _ in range(2):
            runs.append(ResultAccumulator(array, specs, aggregates))
            scan_chunk_range(
                array, runs[-1], range(array.geometry.n_chunks), allowed=allowed
            )
    finally:
        array.chunk_cache = None
    # the second run read every chunk the first one did, from the cache
    misses = cache.counters.get("chunk_cache.misses")
    assert cache.counters.get("chunk_cache.hits") == misses == len(cache)
    return runs


@settings(max_examples=120, deadline=None)
@given(cases())
def test_vectorized_equals_interpreted_equals_brute_force(case):
    array = build(case)
    specs, aggregates, allowed = case["specs"], case["aggregates"], case["allowed"]
    n_chunks = array.geometry.n_chunks
    cut = round(case["cut"] * n_chunks)

    assert consolidate(array, specs, aggregates).rows == brute_force(case, None)

    expected = brute_force(case, allowed)
    for kernel in ("interpreted", "vectorized"):
        left = ResultAccumulator(array, specs, aggregates)
        right = ResultAccumulator(array, specs, aggregates)
        scanned = scan_chunk_range(
            array, left, range(cut), kernel, allowed=allowed
        ) + scan_chunk_range(
            array, right, range(cut, n_chunks), kernel, allowed=allowed
        )
        assert scanned == sum(
            allowed is None
            or all(fact[d] in allowed[d] for d in range(len(case["shape"])))
            for fact in case["facts"]
        )
        # the right half crosses a process boundary before it merges
        shipped = ResultAccumulator(array, specs, aggregates).import_state(
            pickle.loads(pickle.dumps(right.export_state()))
        )
        assert shipped.rows() == right.rows(), kernel
        left.merge_from(shipped)
        assert left.rows() == expected, kernel
        assert left.touched_cells() == len(expected), kernel

    cold = ResultAccumulator(array, specs, aggregates)
    scan_chunk_range(array, cold, range(n_chunks), allowed=allowed)
    for warm in warm_scans(array, specs, aggregates, allowed):
        assert_same_state(warm, cold)


def boundary_case(shape, chunk_shape, allowed=None):
    """One array whose offset halves sit at a dtype boundary: 300 cells,
    among them every corner of the first chunk (so each half's largest
    sub-offset occurs), two ``float64`` measures in quarters (exact in
    any order), ``sum`` and ``avg`` per dimension-level group."""
    rng = np.random.default_rng(sum(shape))
    corners = itertools.product(*[(0, extent - 1) for extent in chunk_shape])
    cells = {*corners}
    while len(cells) < 300:
        cells.add(tuple(int(rng.integers(size)) for size in shape))
    facts = [
        cell + tuple(float(v) for v in rng.integers(-400, 400, 2) / 4)
        for cell in sorted(cells)
    ]
    levels = [[f"L{d}{k % 3}" for k in range(size)] for d, size in enumerate(shape)]
    last = len(shape) - 1
    return {
        "shape": shape,
        "chunk_shape": chunk_shape,
        "dtype": "float64",
        "facts": facts,
        "dimensions": [
            DimensionData(f"dim{d}", list(range(size)), {"h1": levels[d]})
            for d, size in enumerate(shape)
        ],
        "specs": [ConsolidationSpec.level("h1")] * last + [ConsolidationSpec.key()],
        "group_of": levels[:last] + [list(range(shape[last]))],
        "aggregates": ["sum", "avg"],
        "allowed": allowed,
    }


def every_third(shape):
    """A selection of about a third of each dimension, both ends kept."""
    return [sorted({0, *range(1, size, 3), size - 1}) for size in shape]


#: ``(shape, chunk shape, half dtypes)``: halves of 256 and 257
#: sub-offsets, then of 65 536 and 300, then of 65 792 and 300 (the
#: 3-D chunks split after their second axis)
BOUNDARIES = [
    ((260, 257), (256, 257), ("uint8", "uint16")),
    ((256, 256, 310), (256, 256, 300), ("uint16", "uint16")),
    ((256, 257, 310), (256, 257, 300), ("uint32", "uint16")),
]


def test_halves_at_dtype_boundaries_fold_as_cold():
    for shape, chunk_shape, dtypes in BOUNDARIES:
        for allowed in (None, every_third(shape)):
            case = boundary_case(shape, chunk_shape, allowed)
            array = build(case)
            geometry = array.geometry
            assert tuple(str(dtype) for dtype in geometry.half_dtypes) == dtypes
            interpreted = ResultAccumulator(array, case["specs"], case["aggregates"])
            scan_chunk_range(
                array, interpreted, range(geometry.n_chunks), "interpreted", allowed
            )
            assert interpreted.rows() == brute_force(case, allowed)
            for warm in warm_scans(array, case["specs"], case["aggregates"], allowed):
                assert_same_state(warm, interpreted)
