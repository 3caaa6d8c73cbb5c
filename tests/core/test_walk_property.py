"""The one chunk walk, and the operators that are kernels over it.

Over the random geometries of ``test_offset_kernel_property`` (1-D
arrays, size-1 axes, ragged edge chunks, chunk shape == shape):

- the walk over any chunk sub-range and any membership masks yields
  exactly the chunks a brute-force test of every chunk's index box
  keeps — ascending — and bills ``chunks_skipped +
  empty_chunks_skipped + chunks_read == len(range)`` cold; a walk
  closed after ``k`` chunks bills exactly their ``k`` payloads;
- ``sum_region``, ``measure_stats``, ``correlation``, ``slice_dim`` and
  ``compute_cube`` equal a numpy fold over the dense cell table (int64
  measures range past 2**53, so a float64 detour in a sum would show);
  an int64 measure's ``measure_stats`` equal exact Python-int and
  :class:`~fractions.Fraction` references, each statistic rounded once.
"""

import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ConsolidationSpec, compute_cube
from repro.core.builder import DimensionData
from repro.util.stats import Counters

from .test_offset_kernel_property import build, cases


def dense_table(case):
    """``(values[shape + (p,)], valid[shape])`` of the case's facts."""
    shape = case["shape"]
    ndim = len(shape)
    p = len(case["aggregates"])
    values = np.zeros(shape + (p,), dtype=case["dtype"])
    valid = np.zeros(shape, dtype=bool)
    for fact in case["facts"]:
        values[fact[:ndim]] = fact[ndim:]
        valid[fact[:ndim]] = True
    return values, valid


def draw_box(data, shape):
    box = []
    for size in shape:
        low = data.draw(st.integers(0, size - 1))
        box.append(
            data.draw(st.none() | st.just((low, data.draw(st.integers(low, size - 1)))))
        )
    return box


def box_slices(box):
    return tuple(
        slice(None) if bounds is None else slice(bounds[0], bounds[1] + 1)
        for bounds in box
    )


@settings(max_examples=120, deadline=None)
@given(cases(), st.data())
def test_walk_yields_the_brute_force_chunks(case, data):
    array = build(case)
    geometry = array.geometry
    ndim = geometry.ndim
    low = data.draw(st.integers(0, geometry.n_chunks))
    high = data.draw(st.integers(low, geometry.n_chunks))
    masks = data.draw(
        st.none()
        | st.tuples(
            *[
                st.lists(st.booleans(), min_size=size, max_size=size)
                for size in case["shape"]
            ]
        ).map(lambda rows: [np.array(row, dtype=bool) for row in rows])
    )
    stored = {geometry.chunk_of(fact[:ndim]) for fact in case["facts"]}

    def overlaps(chunk_no):
        if masks is None:
            return True
        origin = geometry.chunk_origin(chunk_no)
        extent = geometry.chunk_extent(chunk_no)
        return all(
            masks[d][origin[d] : origin[d] + extent[d]].any()
            for d in range(ndim)
        )

    touched = [c for c in range(low, high) if overlaps(c)]
    assert list(geometry.overlapping_chunks(range(low, high), masks)) == touched

    bag = Counters()
    walked = [chunk.no for chunk in array.walk(range(low, high), masks, bag)]
    assert walked == [c for c in touched if c in stored]
    assert bag.get("chunks_read") == len(walked)
    assert bag.get("chunks_skipped") == (high - low) - len(touched)
    assert (
        bag.get("chunks_skipped")
        + bag.get("empty_chunks_skipped")
        + bag.get("chunks_read")
        == high - low
    )
    # nobody else was billed: the array's own bag saw none of it
    assert array.counters.get("chunks_read") == 0


@settings(max_examples=60, deadline=None)
@given(cases(), st.data())
def test_a_walk_closed_after_k_chunks_bills_exactly_k(case, data):
    """The cold walk bills its payloads once, when its reader ends; a
    walk closed part-way bills the chunks it yielded and no other."""
    array = build(case)
    n_chunks = array.geometry.n_chunks
    k = data.draw(st.integers(0, n_chunks))
    bag = Counters()
    walk = array.walk(range(n_chunks), None, bag)
    taken = [chunk.no for chunk in itertools.islice(walk, k)]
    walk.close()
    lengths = array.chunk_directory()[:, 1]
    assert bag.get("chunks_read") == len(taken)
    assert bag.get("chunk_bytes_read") == sum(int(lengths[no]) for no in taken)
    assert array.counters.get("chunks_read") == 0


def exact_stats(values):
    """count/sum/mean/var of Python ints: the sum exact, mean and
    (population) variance exact fractions rounded once to a float."""
    count, total = len(values), sum(values)
    mean = Fraction(total, count)
    var = sum((value - mean) ** 2 for value in values) / count
    return {"count": count, "sum": total, "mean": float(mean), "var": float(var)}


def int64_case(values):
    """A 1-D int64 array holding ``values`` in consecutive cells."""
    keys = list(range(len(values)))
    return {
        "chunk_shape": (2,),
        "dtype": "int64",
        "facts": list(zip(keys, values)),
        "dimensions": [DimensionData("dim0", keys, {"h1": ["L"] * len(keys)})],
    }


#: Hypothesis's falsifying sum: near 2**55, where float64 keeps every
#: fourth integer, the first value rounds by one unit before the cancel
CANCELLING_PAIR = [36_028_797_002_966_731, -36_028_797_006_966_576]


def test_an_int64_region_sum_is_exact():
    array = build(int64_case(CANCELLING_PAIR))
    stats = array.measure_stats()["m0"]
    assert stats["sum"] == -3_999_845
    assert stats == exact_stats(CANCELLING_PAIR)


def test_an_int64_region_mean_is_the_exact_mean_rounded_once():
    # seven cells whose exact sum is -4 000 000: the float64 fold reads
    # the first value one unit high, and its mean misses -571 428.571...
    values = CANCELLING_PAIR + [-31] * 5
    array = build(int64_case(values))
    stats = array.measure_stats()["m0"]
    assert stats["mean"] == float(Fraction(-4_000_000, 7))
    assert stats == exact_stats(values)


@settings(max_examples=120, deadline=None)
@given(cases(), st.data())
def test_region_functions_equal_a_dense_fold(case, data):
    array = build(case)
    values, valid = dense_table(case)
    box = draw_box(data, case["shape"])
    inside = values[box_slices(box)][valid[box_slices(box)]]

    assert array.sum_region(box).tolist() == inside.sum(axis=0).tolist()

    stats = array.measure_stats(box)
    as_float = inside.astype(np.float64)
    for m, name in enumerate(array.measure_names):
        assert stats[name]["count"] == len(inside)
        if not len(inside):
            continue
        if case["dtype"] == "int64":
            assert stats[name] == exact_stats(inside[:, m].tolist())
        else:
            column = as_float[:, m]
            assert stats[name]["sum"] == pytest.approx(column.sum())
            assert stats[name]["mean"] == pytest.approx(column.mean())
            assert stats[name]["var"] == pytest.approx(column.var())

    if array.n_measures == 2:
        got = array.correlation(*array.measure_names, ranges=box)
        x, y = as_float[:, 0], as_float[:, 1]
        if len(inside) < 2 or x.std() == 0.0 or y.std() == 0.0:
            assert got is None
        else:
            assert got == pytest.approx(np.corrcoef(x, y)[0, 1], abs=1e-9)


@settings(max_examples=60, deadline=None)
@given(cases(), st.data())
def test_slice_dim_equals_a_dense_slice(case, data):
    array = build(case)
    ndim = len(case["shape"])
    d = data.draw(st.integers(0, ndim - 1))
    key = data.draw(st.integers(0, case["shape"][d] - 1))
    expected = sorted(
        (tuple(fact[:ndim]), list(fact[ndim:]))
        for fact in case["facts"]
        if fact[d] == key
    )
    got = [(keys, row.tolist()) for keys, row in array.slice_dim(d, key)]
    assert got == expected


@settings(max_examples=60, deadline=None)
@given(cases())
def test_cube_equals_a_dense_fold_per_subset(case):
    array = build(case)
    ndim = len(case["shape"])
    # the cube drops dimensions itself: every dimension needs a grouping
    specs, group_of = [], []
    for d, (spec, group) in enumerate(zip(case["specs"], case["group_of"])):
        if spec.kind == "drop":
            spec, group = ConsolidationSpec.key(), list(range(case["shape"][d]))
        specs.append(spec)
        group_of.append(group)
    values, valid = dense_table(case)
    coords = np.argwhere(valid)
    rows = values[valid]
    folds = {
        "sum": lambda column: column.sum().item(),
        "count": len,
        "min": lambda column: column.min().item(),
        "max": lambda column: column.max().item(),
        "avg": lambda column: column.sum().item() / len(column),
    }

    bag = Counters()
    cube = compute_cube(array, specs, case["aggregates"], counters=bag)
    assert bag.get("cells_scanned") == len(case["facts"])
    assert len(cube) == 2**ndim
    for size in range(ndim + 1):
        for subset in itertools.combinations(range(ndim), size):
            groups: dict[tuple, list[int]] = {}
            for i, cell in enumerate(coords.tolist()):
                key = tuple(group_of[d][cell[d]] for d in subset)
                groups.setdefault(key, []).append(i)
            expected = sorted(
                key
                + tuple(
                    folds[name](rows[members, m])
                    for m, name in enumerate(case["aggregates"])
                )
                for key, members in groups.items()
            )
            names = tuple(f"dim{d}" for d in subset)
            assert cube[names] == expected, names
