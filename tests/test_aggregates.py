"""Tests for the column fold every backend aggregates through.

Each case folds values through :func:`repro.aggregates.group_fold` and
holds it to the per-row reference in :mod:`tests.per_row_fold`.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.aggregates import ColumnFold, get_aggregate, group_fold
from repro.errors import QueryError
from tests.per_row_fold import per_row_fold, per_row_group_by

NAMES = ["sum", "count", "min", "max", "avg", "var", "stddev"]


def fold(name, values, dtype=np.int64):
    """``values`` as one group's column fold: its result, or ``None``
    when no row reaches the group (then there is no output row)."""
    rows = group_fold(
        [(["g"], np.zeros(len(values), dtype=np.uint8))],
        [np.array(values, dtype=dtype)],
        [name],
    )
    return rows[0][1] if rows else None


class TestFolds:
    def test_sum(self):
        assert fold("sum", [1, 2, 3]) == 6

    def test_sum_empty(self):
        assert fold("sum", []) is None  # an empty group has no row

    def test_count(self):
        assert fold("count", [5, 5, 5, 5]) == 4

    def test_min_max(self):
        assert fold("min", [3, -1, 7]) == -1
        assert fold("max", [3, -1, 7]) == 7

    def test_min_empty_is_none(self):
        assert fold("min", []) is None
        assert fold("max", []) is None

    def test_avg(self):
        assert fold("avg", [1, 2, 3, 4]) == 2.5

    def test_avg_empty_is_none(self):
        assert fold("avg", []) is None

    def test_variance_matches_numpy(self):
        values = [3, 7, 7, 19, 2, 2, 5]
        assert fold("var", values) == pytest.approx(np.var(values))
        assert fold("stddev", values) == pytest.approx(np.std(values))

    def test_variance_of_constant_is_zero(self):
        assert fold("var", [4, 4, 4]) == 0.0

    def test_variance_empty_is_none(self):
        assert fold("var", []) is None
        assert fold("stddev", []) is None

    def test_case_insensitive_lookup(self):
        assert get_aggregate("SUM").name == "sum"

    def test_unknown_rejected(self):
        with pytest.raises(QueryError):
            get_aggregate("median")

    def test_int32_measures_widen_to_int64(self):
        assert fold("sum", [2**31 - 1] * 3, dtype=np.int32) == 3 * (2**31 - 1)

    def test_float_sum_is_the_row_order_sum(self):
        values = [0.1, 1e16, -1e16, 0.2, 0.3]
        assert fold("sum", values, np.float64) == per_row_fold("sum", values)


@given(
    st.sampled_from(NAMES),
    st.lists(st.integers(-100, 100), min_size=1),
    st.data(),
)
def test_merge_equals_sequential_fold(name, values, data):
    aggs = [get_aggregate(name)]
    cut = data.draw(st.integers(min_value=0, max_value=len(values)))
    column = np.array(values, dtype=np.int64)
    left, right = (ColumnFold.blank(aggs, [np.int64], 1) for _ in range(2))
    left.fold(np.zeros(cut, dtype=np.int64), [column[:cut]])
    right.fold(np.zeros(len(values) - cut, dtype=np.int64), [column[cut:]])
    left.merge_from(right)
    (merged,) = left.finish(np.array([0]))[0]
    sequential = per_row_fold(name, values)
    if isinstance(sequential, float):
        assert merged == pytest.approx(sequential)
    else:
        assert merged == sequential


# values whose every partial sum and sum of squares over a few dozen rows
# is exact in float64: regrouping the rows cannot round, so two folds of
# the same rows agree bit for bit whatever cells they pass through
EXACT = {
    np.int64: st.integers(-(2**20), 2**20),
    np.float64: st.integers(-(2**16), 2**16).map(lambda k: k / 4),
}


def _bits(fold):
    """A fold's whole state as bytes: counts, then every column's dtype
    and contents."""
    return [fold.counts.tobytes()] + [
        column.dtype.str.encode() + column.tobytes()
        for columns in fold.columns
        for column in columns
    ]


@given(st.sampled_from(NAMES), st.sampled_from([np.int64, np.float64]), st.data())
def test_a_cell_mapped_merge_equals_folding_into_the_coarse_cells(name, dtype, data):
    """Rows folded into fine cells and merged into the coarse cells each
    fine cell maps to leave the state folding the rows straight into the
    coarse cells leaves; without a map, a merge is the same-cell one."""
    aggs = [get_aggregate(name)]
    n_fine = data.draw(st.integers(1, 12))
    coarse_of_fine = np.array(
        data.draw(st.lists(st.integers(0, 3), min_size=n_fine, max_size=n_fine)),
        dtype=np.int64,
    )
    n = data.draw(st.integers(0, 40))
    cells = np.array(
        data.draw(st.lists(st.integers(0, n_fine - 1), min_size=n, max_size=n)),
        dtype=np.int64,
    )
    values = np.array(
        data.draw(st.lists(EXACT[dtype], min_size=n, max_size=n)), dtype=dtype
    )

    def folded(into, cells, values):
        fold = ColumnFold.blank(aggs, [dtype], into)
        fold.fold(cells, [values])
        return fold

    fine = folded(n_fine, cells, values)
    merged = ColumnFold.blank(aggs, [dtype], 4)
    merged.merge_from(fine, cells=coarse_of_fine)
    direct = folded(4, coarse_of_fine[cells], values)
    assert _bits(merged) == _bits(direct)
    touched = np.flatnonzero(direct.counts)
    assert merged.finish(touched) == direct.finish(touched)

    cut = data.draw(st.integers(0, n))
    same_cells = folded(n_fine, cells[:cut], values[:cut])
    same_cells.merge_from(folded(n_fine, cells[cut:], values[cut:]))
    mapped = folded(n_fine, cells[:cut], values[:cut])
    mapped.merge_from(
        folded(n_fine, cells[cut:], values[cut:]), cells=np.arange(n_fine)
    )
    assert _bits(same_cells) == _bits(fine) == _bits(mapped)


# |v| <= 2**26: every square is exact in float64, so the moment columns
# round as the per-row Variance does, and every aggregate is bit-equal
MEASURES = st.one_of(
    st.integers(-(2**26), 2**26),
    st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
)


@given(
    st.lists(st.sampled_from(NAMES), min_size=1, max_size=3),
    st.lists(st.integers(0, 3), min_size=1, max_size=3),
    st.data(),
)
def test_group_fold_equals_the_per_row_group_by(aggregates, widths, data):
    """Several group columns of string labels, any measures: the column
    fold returns the per-row group-by's rows, in its order, bit for bit."""
    kinds = [data.draw(st.sampled_from(["int", "float"])) for _ in aggregates]
    n = data.draw(st.integers(0, 40))
    rows = [
        tuple(f"L{data.draw(st.integers(0, width))}" for width in widths)
        + tuple(
            float(data.draw(MEASURES)) if kind == "float"
            else data.draw(st.integers(-(2**26), 2**26))
            for kind in kinds
        )
        for _ in range(n)
    ]
    groups = []
    for g in range(len(widths)):
        labels = sorted({row[g] for row in rows})
        codes = np.array([labels.index(row[g]) for row in rows], dtype=np.uint8)
        groups.append((labels, codes))
    measures = [
        np.array(
            [row[len(widths) + m] for row in rows],
            dtype=np.float64 if kind == "float" else np.int64,
        )
        for m, kind in enumerate(kinds)
    ]
    assert group_fold(groups, measures, aggregates) == per_row_group_by(
        rows, len(widths), aggregates
    )


def test_group_fold_renumbers_past_the_dense_bound(monkeypatch):
    """Past ``DENSE_GROUPS`` combinations the cells are the groups that
    occur; the rows, and their order, are the same."""
    import repro.aggregates as aggregates

    rng = np.random.default_rng(5)
    groups = [
        ([f"k{i:02d}" for i in range(30)], rng.integers(0, 30, 500).astype(np.uint8))
        for _ in range(3)
    ]
    measures = [rng.integers(-50, 50, 500)]
    dense = group_fold(groups, measures, ["sum"])
    monkeypatch.setattr(aggregates, "DENSE_GROUPS", 10)
    assert group_fold(groups, measures, ["sum"]) == dense
    rows = [
        tuple(labels[c] for labels, c in zip([g[0] for g in groups], codes))
        + (int(v),)
        for codes, v in zip(zip(*(g[1] for g in groups)), measures[0])
    ]
    assert dense == per_row_group_by(rows, 3, ["sum"])
