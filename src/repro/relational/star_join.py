"""The §4.3 Starjoin consolidation operator.

One lookup table per dimension, one scan of the fact table:

1. For each dimension, build an in-memory table from the dimension key
   to the code of the tuple's group-by value (dimension tables are
   assumed memory-resident — the standard star-schema assumption).
2. Scan the fact table once, its pages read into columns.  Look each
   fact tuple's foreign keys up to give its group codes, then fold its
   measures into the group's cell.

This is the *value-based* aggregation the paper contrasts with the
array's *position-based* aggregation.  Past the lookup both fold
through the same columns (:class:`~repro.aggregates.ColumnFold`), and
the selection operators end in the same lookup and fold
(:func:`consolidate_facts`).  ``key_filters`` (an extension) lets the
single-scan operator evaluate selections: a fact tuple whose foreign
key is not in a filter set is skipped.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from dataclasses import dataclass

import numpy as np

from repro.aggregates import group_fold
from repro.errors import QueryError
from repro.index.bitmap import factorize
from repro.obs.tracer import get_tracer
from repro.relational.fact_file import FactFile
from repro.relational.heap_file import HeapFile
from repro.util.records import key_positions
from repro.util.stats import Counters


@dataclass(frozen=True)
class DimensionJoinSpec:
    """How one dimension participates in a consolidation.

    ``dim_key`` is the key column in the dimension table, ``fact_key``
    the matching foreign-key column in the fact table, and
    ``group_attr`` the dimension attribute the query groups by.
    """

    table: HeapFile
    dim_key: str
    fact_key: str
    group_attr: str


def build_dimension_hash(spec: DimensionJoinSpec) -> dict:
    """Build the in-memory key → group-by-value hash for one dimension."""
    keys, values = spec.table.columns([spec.dim_key, spec.group_attr])
    return dict(zip(keys.tolist(), values.tolist()))


def dimension_lookup(spec: DimensionJoinSpec) -> tuple[list, np.ndarray, np.ndarray]:
    """One dimension's lookup table: its group-by values ascending, its
    keys, and each key's code into those values."""
    table = build_dimension_hash(spec)
    labels, codes = factorize(table.values())
    return labels, np.array(list(table)), codes


def consolidate_facts(
    fact: FactFile | HeapFile,
    dimensions: list[DimensionJoinSpec],
    fetch: Callable[[], list[np.ndarray]],
    measure: str | list[str],
    aggregate: str | list[str],
    counters: Counters,
    span: str = "fetch_tuples",
    count_entries: bool = False,
    **attrs,
) -> list[tuple]:
    """The value-based consolidation every operator here ends in.

    Build one lookup per dimension; ``fetch()`` the fact tuples'
    columns and look each foreign key up among its dimension's keys
    (:func:`~repro.util.records.key_positions`, inside ``span``); fold
    the measures of the tuples that join every dimension by their group
    codes.  A tuple whose key has no dimension
    row joins nothing: it is skipped and counted in
    ``dangling_fact_tuples``.  Rows come out sorted.  ``measure`` is one
    name or a list, ``aggregate`` one name for all or one per measure.
    """
    if not dimensions:
        raise QueryError("consolidation needs at least one dimension")
    measures = [measure] if isinstance(measure, str) else list(measure)
    aggregates = (
        [aggregate] * len(measures) if isinstance(aggregate, str) else list(aggregate)
    )
    if len(aggregates) != len(measures):
        raise QueryError(f"{len(aggregates)} aggregates for {len(measures)} measures")
    schema, tracer = fact.schema, get_tracer()
    with tracer.span("build_dimension_hashes", dimensions=len(dimensions)):
        lookups = [dimension_lookup(spec) for spec in dimensions]
        if count_entries:
            counters.add("dim_hash_entries", sum(len(keys) for _, keys, _ in lookups))
    with tracer.span(span, **attrs):
        columns = fetch()
        joined, found = np.ones(len(columns[0]), dtype=bool), []
        for spec, (labels, keys, codes) in zip(dimensions, lookups):
            at = key_positions(keys, columns[schema.index_of(spec.fact_key)])
            joined &= at >= 0
            found.append((labels, codes, at))
        if not joined.all():
            counters.add("dangling_fact_tuples", int(np.count_nonzero(~joined)))
    with tracer.span("finalize_groups") as finalize:
        groups = [(labels, codes[at[joined]]) for labels, codes, at in found]
        rows = group_fold(
            groups, [columns[schema.index_of(m)][joined] for m in measures], aggregates
        )
        counters.add("result_groups", len(rows))
        finalize.annotate(groups=len(rows))
        return rows


def star_join_consolidate(
    fact: FactFile | HeapFile,
    dimensions: list[DimensionJoinSpec],
    measure: str | list[str],
    aggregate: str | list[str] = "sum",
    counters: Counters | None = None,
    key_filters: dict[str, Iterable] | None = None,
) -> list[tuple]:
    """Run the Starjoin consolidation; returns sorted result rows.

    Each output row is ``(group values..., aggregate values...)`` with
    group values ordered as ``dimensions``.  ``key_filters`` maps a fact
    foreign-key column to the set of key values that pass selection.
    """
    counters = counters if counters is not None else Counters()
    schema, filters = fact.schema, key_filters or {}

    def scan() -> list[np.ndarray]:
        columns = fact.columns()
        counters.add("fact_tuples_scanned", len(columns[0]))
        passing = np.ones(len(columns[0]), dtype=bool)
        for column, allowed in filters.items():
            passing &= np.isin(columns[schema.index_of(column)], list(allowed))
        return [column[passing] for column in columns]

    return consolidate_facts(
        fact,
        dimensions,
        scan,
        measure,
        aggregate,
        counters,
        span="scan_fact",
        count_entries=True,
        filters=len(filters),
    )
