"""``var``/``stddev`` fold as moment columns and match a per-row fold.

The accumulator keeps the per-row ``Variance``'s ``(count, sum, sum of
squares)`` state (:mod:`tests.per_row_fold`) as the touch counts plus
two float64 columns, folded with ``np.add.at`` in the walk's cell
order.  Against a per-row ``Variance`` / ``StdDev`` fold over the
same cells in the same order (chunk by chunk, ascending offset):

- float64 measures, and int64 measures with ``|v| <= 2**26`` (where
  ``float(v) ** 2`` is exact), agree bit for bit;
- larger int64 measures square as ``float(v) * float(v)`` where the
  per-row fold rounds the exact integer square once: each square then
  differs by at most a few ulps of itself, and each of the ``n``
  additions rounds once more, so results agree within
  :data:`ULPS_PER_CELL` ulps of the largest square per cell of the
  group (``stddev`` compared squared);
- the result is never negative, and a one-cell group gives exactly
  ``0.0``;
- split into 1–7 chunk ranges merged with ``merge_from`` (the last one
  across an ``export_state`` → pickle → ``import_state`` hop), partial
  sums add in another order: the merge agrees with the whole scan
  within the same bound;
- run warm, twice over a decoded-chunk cache, the whole scan leaves the
  cold state bit for bit.

The formula is the raw-moment one ``Variance.result`` uses; every
relational backend folds through the same columns.  A pooled-moment
fold would change results.
"""

import itertools
import math
import pickle

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ConsolidationSpec
from repro.core.builder import DimensionData, build_olap_array
from repro.core.consolidate import ResultAccumulator, scan_chunk_range
from repro.storage import BufferPool, FileManager, SimulatedDisk
from tests.core.test_offset_kernel_property import assert_same_state, warm_scans
from tests.per_row_fold import REFERENCE

#: ulps of a group's largest square allowed per cell of the group
ULPS_PER_CELL = 8

#: measure kind -> (array dtype, value strategy, bit-exact per-row fold)
MEASURES = {
    "float64": (
        "float64",
        st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
        True,
    ),
    "int26": ("int64", st.integers(-(2**26), 2**26), True),
    "int62": ("int64", st.integers(-(2**62), 2**62), False),
}


@st.composite
def cases(draw):
    ndim = draw(st.integers(1, 3))
    shape = tuple(draw(st.integers(1, 5)) for _ in range(ndim))
    chunk_shape = tuple(draw(st.integers(1, size)) for size in shape)
    kind = draw(st.sampled_from(sorted(MEASURES)))
    dtype, measure, exact = MEASURES[kind]
    cells = list(itertools.product(*[range(size) for size in shape]))
    chosen = draw(
        st.lists(st.sampled_from(cells), unique=True, min_size=1, max_size=len(cells))
    )
    n_measures = draw(st.integers(1, 2))
    facts = [
        cell + tuple(draw(measure) for _ in range(n_measures)) for cell in chosen
    ]
    dimensions, specs, group_of = [], [], []
    for d, size in enumerate(shape):
        fanout = draw(st.integers(1, size))
        levels = [f"L{d}{key % fanout}" for key in range(size)]
        dimensions.append(
            DimensionData(f"dim{d}", list(range(size)), {"h1": levels})
        )
        spec = draw(st.sampled_from(["level", "key", "drop"]))
        if spec == "level":
            specs.append(ConsolidationSpec.level("h1"))
            group_of.append(levels)
        elif spec == "key":
            specs.append(ConsolidationSpec.key())
            group_of.append(list(range(size)))
        else:
            specs.append(ConsolidationSpec.drop())
            group_of.append(None)
    n_chunks = math.prod(-(-size // c) for size, c in zip(shape, chunk_shape))
    return {
        "shape": shape,
        "chunk_shape": chunk_shape,
        "dtype": dtype,
        "exact": exact,
        "facts": facts,
        "dimensions": dimensions,
        "specs": specs,
        "group_of": group_of,
        "aggregates": [
            draw(st.sampled_from(["var", "stddev"])) for _ in range(n_measures)
        ],
        "cuts": sorted(draw(st.lists(st.integers(0, n_chunks), max_size=6))),
    }


def build(case):
    fm = FileManager(BufferPool(SimulatedDisk(page_size=1024), 512 * 1024))
    return build_olap_array(
        fm,
        "cube",
        case["dimensions"],
        case["facts"],
        chunk_shape=case["chunk_shape"],
        dtype=case["dtype"],
    )


def per_row_fold(case, array):
    """Group key -> (measure value lists, per-row ``Aggregate`` results),
    each group's cells folded in the order the walk yields them."""
    ndim = len(case["shape"])
    aggs = [REFERENCE[name] for name in case["aggregates"]]
    groups: dict[tuple, tuple[list, list]] = {}
    for fact in sorted(
        case["facts"], key=lambda f: array.geometry.locate(f[:ndim])
    ):
        key = tuple(
            group[fact[d]]
            for d, group in enumerate(case["group_of"])
            if group is not None
        )
        values, states = groups.setdefault(
            key, ([[] for _ in aggs], [agg.initial() for agg in aggs])
        )
        for m, agg in enumerate(aggs):
            values[m].append(fact[ndim + m])
            states[m] = agg.add(states[m], fact[ndim + m])
    return {
        key: (values, [agg.result(s) for agg, s in zip(aggs, states)])
        for key, (values, states) in groups.items()
    }


def by_group(accumulator, n_measures):
    return {
        row[:-n_measures]: row[-n_measures:] for row in accumulator.rows()
    }


def within_bound(name, got, want, values):
    """``got`` and ``want`` agree within the stated ulp bound."""
    bound = ULPS_PER_CELL * len(values) * math.ulp(
        max(float(v) ** 2 for v in values)
    )
    if name == "stddev":  # compare the variances the roots were taken of
        got, want = got * got, want * want
        bound += 4 * math.ulp(max(got, want))
    return abs(got - want) <= bound


@settings(max_examples=200, deadline=None)
@given(cases())
def test_moment_columns_match_a_per_row_fold(case):
    array = build(case)
    specs, aggregates = case["specs"], case["aggregates"]
    p = len(aggregates)
    n_chunks = array.geometry.n_chunks

    whole = ResultAccumulator(array, specs, aggregates)
    scan_chunk_range(array, whole, range(n_chunks))
    got = by_group(whole, p)
    expected = per_row_fold(case, array)
    assert got.keys() == expected.keys()
    for key, (values, results) in expected.items():
        for m, name in enumerate(aggregates):
            assert got[key][m] >= 0.0, (key, name)
            if len(values[m]) == 1:
                assert got[key][m] == 0.0, (key, name)
            if case["exact"]:
                assert got[key][m] == results[m], (key, name)
            else:
                assert within_bound(name, got[key][m], results[m], values[m])

    # warm: the cached records' kept halves fold in the same order
    for warm in warm_scans(array, specs, aggregates):
        assert_same_state(warm, whole)

    # 1-7 chunk ranges, the last shipped across a process boundary
    bounds = [0, *case["cuts"], n_chunks]
    parts = []
    for start, stop in zip(bounds, bounds[1:]):
        part = ResultAccumulator(array, specs, aggregates)
        scan_chunk_range(array, part, range(start, stop))
        parts.append(part)
    shipped = ResultAccumulator(array, specs, aggregates).import_state(
        pickle.loads(pickle.dumps(parts[-1].export_state()))
    )
    assert shipped.rows() == parts[-1].rows()
    merged = ResultAccumulator(array, specs, aggregates)
    for part in [*parts[:-1], shipped]:
        merged.merge_from(part)
    assert merged.touched_cells() == len(expected)
    split = by_group(merged, p)
    assert split.keys() == got.keys()
    for key, (values, _) in expected.items():
        for m, name in enumerate(aggregates):
            assert split[key][m] >= 0.0, (key, name)
            if len(values[m]) == 1:
                assert split[key][m] == 0.0, (key, name)
            assert within_bound(name, split[key][m], got[key][m], values[m])
