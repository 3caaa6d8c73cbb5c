"""Volcano-style relational operators.

These implement the "traditional alternative" the paper's introduction
contrasts the specialized algorithms against: pipelined plans built
from scans, filters, hash joins and a hash group-by.  They are used by
the left-deep star-join baseline (ablation ``abl3``) and are general
enough for ad-hoc queries in examples.  Rows flow as tuples and every
hash join materializes its build side, as in the paper's complaint; the
group-by folds columns through the one fold every backend shares
(:func:`~repro.aggregates.group_fold`).

Column names can be qualified via a scan alias (``dim0.d0``) so joins
between tables sharing column names stay unambiguous.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator

import numpy as np

from repro.aggregates import get_aggregate, group_fold
from repro.errors import QueryError
from repro.index.bitmap import factorize


class Operator:
    """Base class: every operator exposes ``names`` and is iterable."""

    names: tuple[str, ...] = ()

    def __iter__(self) -> Iterator[tuple]:
        raise NotImplementedError

    def _index_of(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise QueryError(
                f"no column {name!r} in {list(self.names)}"
            ) from None


class SeqScan(Operator):
    """Scan a heap table or fact file, optionally qualifying columns."""

    def __init__(self, table, alias: str | None = None):
        self.table = table
        prefix = f"{alias}." if alias else ""
        self.names = tuple(f"{prefix}{n}" for n in table.schema.names)

    def __iter__(self) -> Iterator[tuple]:
        return self.table.scan()


class Filter(Operator):
    """Keep rows satisfying a predicate or a dict of equality conditions."""

    def __init__(
        self,
        child: Operator,
        predicate: Callable[[tuple], bool] | None = None,
        equals: dict[str, object] | None = None,
    ):
        if (predicate is None) == (equals is None):
            raise QueryError("Filter needs exactly one of predicate/equals")
        self.child = child
        self.names = child.names
        if equals is not None:
            positions = [(child._index_of(c), v) for c, v in equals.items()]

            def predicate(row, _positions=tuple(positions)):
                return all(row[i] == v for i, v in _positions)

        self.predicate = predicate

    def __iter__(self) -> Iterator[tuple]:
        predicate = self.predicate
        return (row for row in self.child if predicate(row))


class Project(Operator):
    """Keep (and reorder) a subset of columns."""

    def __init__(self, child: Operator, columns: list[str]):
        self.child = child
        self._positions = tuple(child._index_of(c) for c in columns)
        self.names = tuple(columns)

    def __iter__(self) -> Iterator[tuple]:
        positions = self._positions
        for row in self.child:
            yield tuple(row[i] for i in positions)


class HashJoin(Operator):
    """Equi-join: build an in-memory hash table on the left child.

    The build side is fully materialized into a dict before the first
    probe-side row flows — the exact property that makes left-deep
    plans with a fact-table-sized build side expensive (§4.3).
    """

    def __init__(
        self,
        build: Operator,
        probe: Operator,
        build_keys: list[str],
        probe_keys: list[str],
    ):
        if len(build_keys) != len(probe_keys):
            raise QueryError("join key lists differ in length")
        self.build = build
        self.probe = probe
        self._build_positions = tuple(build._index_of(k) for k in build_keys)
        self._probe_positions = tuple(probe._index_of(k) for k in probe_keys)
        self.names = build.names + probe.names
        self.build_rows_materialized = 0

    def __iter__(self) -> Iterator[tuple]:
        table: dict[tuple, list[tuple]] = {}
        build_positions = self._build_positions
        for row in self.build:
            key = tuple(row[i] for i in build_positions)
            table.setdefault(key, []).append(row)
            self.build_rows_materialized += 1
        probe_positions = self._probe_positions
        for row in self.probe:
            key = tuple(row[i] for i in probe_positions)
            for match in table.get(key, ()):
                yield match + row


class HashGroupBy(Operator):
    """Group by columns and fold aggregates over measure columns: each
    group column coded (:func:`~repro.index.bitmap.factorize`), then
    :func:`~repro.aggregates.group_fold`."""

    def __init__(
        self,
        child: Operator,
        group_columns: list[str],
        aggregations: list[tuple[str, str]],
    ):
        self.child = child
        self._group_positions = tuple(child._index_of(c) for c in group_columns)
        self._aggs = [
            (get_aggregate(name).name, child._index_of(col))
            for name, col in aggregations
        ]
        self.names = tuple(group_columns) + tuple(
            f"{name}({col})" for name, col in aggregations
        )

    def __iter__(self) -> Iterator[tuple]:
        rows = list(self.child)
        yield from group_fold(
            [factorize(row[i] for row in rows) for i in self._group_positions],
            [np.asarray([row[i] for row in rows]) for _, i in self._aggs],
            [name for name, _ in self._aggs],
        )


def left_deep_consolidation(
    fact_scan: Operator,
    dimension_scans: list[tuple[Operator, str, str]],
    group_columns: list[str],
    measure_columns: str | list[str],
    aggregate: str = "sum",
) -> HashGroupBy:
    """The pipelined left-deep hash-join plan the paper criticizes.

    ``dimension_scans`` is a list of ``(scan, dim_key, fact_key)`` with
    qualified key names.  The first join builds on the (small) first
    dimension and probes the fact table; every later join *builds on
    the fact-sized intermediate result* and probes the next dimension —
    the §4.3 complaint made executable.
    """
    if not dimension_scans:
        raise QueryError("left-deep plan needs at least one dimension")
    if isinstance(measure_columns, str):
        measure_columns = [measure_columns]
    first_dim, dim_key, fact_key = dimension_scans[0]
    plan: Operator = HashJoin(first_dim, fact_scan, [dim_key], [fact_key])
    for dim_scan, dim_key, fact_key in dimension_scans[1:]:
        plan = HashJoin(plan, dim_scan, [fact_key], [dim_key])
    return HashGroupBy(
        plan, group_columns, [(aggregate, m) for m in measure_columns]
    )
