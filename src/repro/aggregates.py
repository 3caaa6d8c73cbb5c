"""Aggregate functions, and the one column fold every backend runs.

The paper implements summation and notes the algorithms "could easily
be extended to aggregates such as count and average" — we do exactly
that.  An :class:`Aggregate` names the numpy columns its state folds
into and how a touched result cell finishes (``_FOLDS``).  A
:class:`ColumnFold` holds, over a table of result cells, the per-cell
touch counts and every measure's columns, and folds measure columns in
with ``ufunc.at`` in the order given.

Both sides of the paper's comparison fold through it; they differ only
in how a measure finds its result cell.  The array's
:class:`~repro.core.consolidate.ResultAccumulator` computes the cell
from the measure's *position* (§4.1); the relational operators
(§4.3–4.5) call :func:`group_fold`, which numbers the groups from the
tuples' group-by *values*.  The rollup route folds through it too: a
grain (:mod:`repro.olap.grains`) is the fold of its own consolidation,
re-rolled into coarser cells by :meth:`ColumnFold.merge_from` and
finished by :meth:`ColumnFold.finish`.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from repro.errors import QueryError

#: the most group cells :func:`group_fold` gives every combination of
#: its group codes; past it, the cells are renumbered to the
#: combinations that occur
DENSE_GROUPS = 1 << 16


def _variances(counts: list, cells: list) -> list[float]:
    """Population variance from the (count, Σx, Σx²) moments."""
    out = []
    for count, total, squares in zip(counts, *cells):
        mean = total / count
        out.append(max(0.0, squares / count - mean * mean))
    return out


@dataclass(frozen=True)
class Aggregate:
    """One aggregate function.

    ``columns`` are the columns its state folds into — each one's ufunc
    (it folds and merges with), its dtype (None: the measure's own, so
    int64 folds are exact past 2**53) and what of the measure it folds
    (None: the measure).  ``finish`` turns the touched cells' counts and
    column values (Python lists) into results.  ``count`` has no column:
    the touch counts already are the answer.
    """

    name: str
    columns: tuple
    finish: Callable[[list, list], list]


#: ``var``/``stddev`` fold two float64 moment columns: Σx, then Σx²
_MOMENTS = ((np.add, np.float64, None), (np.add, np.float64, np.square))

_FOLDS: dict[str, Aggregate] = {
    agg.name: agg
    for agg in (
        Aggregate("sum", ((np.add, None, None),), lambda n, cells: cells[0]),
        Aggregate(
            "avg",
            ((np.add, None, None),),
            lambda n, cells: [total / count for total, count in zip(cells[0], n)],
        ),
        Aggregate("min", ((np.minimum, None, None),), lambda n, cells: cells[0]),
        Aggregate("max", ((np.maximum, None, None),), lambda n, cells: cells[0]),
        Aggregate("count", (), lambda n, cells: n),
        Aggregate("var", _MOMENTS, _variances),
        Aggregate(
            "stddev",
            _MOMENTS,
            lambda n, cells: [v**0.5 for v in _variances(n, cells)],
        ),
    )
}


def get_aggregate(name: str) -> Aggregate:
    """Look up an aggregate by name (``sum``/``count``/``min``/``max``/
    ``avg``/``var``/``stddev``)."""
    try:
        return _FOLDS[name.lower()]
    except KeyError:
        raise QueryError(
            f"unknown aggregate {name!r}; expected one of {sorted(_FOLDS)}"
        ) from None


def blank_column(ufunc: np.ufunc, dtype: np.dtype, shape) -> np.ndarray:
    """A column nothing has been folded into by ``ufunc``: zeros for
    ``np.add``, the dtype's extreme for ``np.minimum``/``np.maximum``.
    Whether a cell holds a real value is decided by its touch count,
    never by comparing against the sentinel."""
    if dtype.kind == "f":
        lowest, highest = -np.inf, np.inf
    else:
        lowest, highest = np.iinfo(dtype).min, np.iinfo(dtype).max
    fill = {np.add: 0, np.minimum: highest, np.maximum: lowest}[ufunc]
    return np.full(shape, fill, dtype=dtype)


class ColumnFold:
    """Per-cell touch counts and, per measure, the columns its aggregate
    folds into: one contiguous array per quantity over the result cells.
    The arrays are plain numpy, so a fold crosses a process boundary as
    ``(counts, columns)``."""

    def __init__(self, aggs: list[Aggregate], counts, columns):
        self.aggs = aggs
        self.counts = counts
        self.columns = columns

    @classmethod
    def blank(cls, aggs: list[Aggregate], dtypes, cells: int) -> "ColumnFold":
        """A fold over ``cells`` cells nothing has entered; measure ``m``
        folds in ``dtypes[m]`` where its aggregate names no dtype."""
        return cls(
            aggs,
            np.zeros(cells, dtype=np.int64),
            [
                [
                    blank_column(ufunc, np.dtype(own or dtype), cells)
                    for ufunc, own, _ in agg.columns
                ]
                for agg, dtype in zip(aggs, dtypes)
            ],
        )

    def fold(self, cells: np.ndarray, measures: Sequence[np.ndarray]) -> None:
        """Fold row ``i`` of every measure column into cell ``cells[i]``,
        in row order."""
        np.add.at(self.counts, cells, 1)
        for agg, columns, values in zip(self.aggs, self.columns, measures):
            if not columns:
                continue
            for (ufunc, _, of), column in zip(agg.columns, columns):
                operand = values.astype(column.dtype, copy=False)
                ufunc.at(column, cells, operand if of is None else of(operand))

    def merge_from(self, other: "ColumnFold", cells: np.ndarray | None = None) -> None:
        """Fold another fold into this one, its cell ``i`` into
        ``cells[i]`` — or into cell ``i`` when ``cells`` is ``None``, a
        fold over the same cells (a shard partial): every column merges
        with the ufunc it folds with."""
        if cells is None:
            self.counts += other.counts
        else:
            np.add.at(self.counts, cells, other.counts)
        for agg, mine, theirs in zip(self.aggs, self.columns, other.columns):
            for (ufunc, _, _), column, other_column in zip(agg.columns, mine, theirs):
                if cells is None:
                    ufunc(column, other_column, out=column)
                else:
                    ufunc.at(column, cells, other_column)

    def finish(self, touched: np.ndarray) -> list[list]:
        """Per measure, the results of the ``touched`` cells, finished
        on Python numbers."""
        counts = self.counts[touched].tolist()
        return [
            agg.finish(counts, [column[touched].tolist() for column in columns])
            for agg, columns in zip(self.aggs, self.columns)
        ]


def group_fold(
    groups: list[tuple[list, np.ndarray]],
    measures: list[np.ndarray],
    aggregates: list[str],
) -> list[tuple]:
    """Value-based aggregation: ``(group labels..., aggregates...)`` rows,
    sorted.

    ``groups`` holds, per group-by column, its labels ascending and each
    row's code into them (:func:`~repro.index.bitmap.factorize`);
    ``measures`` holds one column per aggregate.  A row's cell is its
    codes composed row-major, so ascending cells are the labels' tuple
    order.  While the combinations that could occur number more than
    ``DENSE_GROUPS``, the cells composed so far are renumbered to those
    that occur (``np.unique``).  Integer measures fold in int64 whatever
    their width, float ones in float64, both in row order.
    """
    aggs = [get_aggregate(name) for name in aggregates]
    # a fact-file column can be a field of packed records, at an odd
    # byte offset; ufunc.at only takes its fast path on aligned operands
    measures = [np.require(m, requirements="A") for m in measures]
    cells, size = np.zeros(len(measures[0]), dtype=np.int64), 1
    for labels, codes in groups:
        cells = cells * len(labels) + codes
        size *= len(labels)
        if size > DENSE_GROUPS:
            occurring, cells = np.unique(cells, return_inverse=True)
            size = len(occurring)
    fold = ColumnFold.blank(
        aggs, [np.promote_types(m.dtype, np.int64) for m in measures], size
    )
    fold.fold(cells, measures)
    touched = np.flatnonzero(fold.counts)
    member = np.empty(size, dtype=np.int64)
    member[cells] = np.arange(len(cells))  # some row of each cell
    rows = member[touched]
    labels = [map(names.__getitem__, codes[rows].tolist()) for names, codes in groups]
    return list(zip(*labels, *fold.finish(touched)))
