"""The §4.5 relational algorithm for consolidation with selection.

    Set all bits of ResultBitmap to ones;
    foreach selected dimension {
        retrieve the bitmaps for the selected values;
        AND ResultBitmap with the bitmaps;
    }
    retrieve the tuples for ResultBitmap;
    aggregate the tuples' measure to the results;

The per-value bitmaps are **join bitmap indices** built ahead of time
(one per selected dimension attribute, over fact-tuple positions); the
tuple fetch is the fact file's positional fast path.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.errors import QueryError
from repro.index.bitmap import BitmapIndex
from repro.obs.tracer import get_tracer
from repro.relational.fact_file import FactFile
from repro.relational.star_join import DimensionJoinSpec, consolidate_facts
from repro.util.bitset import Bitset
from repro.util.stats import Counters


def bitmap_select_consolidate(
    fact: FactFile,
    group_dimensions: list[DimensionJoinSpec],
    selections: list[tuple[BitmapIndex, Iterable]],
    measure: str | list[str],
    aggregate: str = "sum",
    counters: Counters | None = None,
) -> list[tuple]:
    """Bitmap-AND selection, then fetch-and-aggregate.

    ``selections`` pairs a join bitmap index (over this fact table's
    positions) with the selected values of its attribute — or with a
    precomputed :class:`~repro.util.bitset.Bitset` (range predicates
    arrive this way).  Output rows
    are ``(group values..., aggregate values...)`` ordered as
    ``group_dimensions``; rows come out sorted.
    """
    counters = counters if counters is not None else Counters()
    with get_tracer().span("fetch_bitmaps", selections=len(selections)):
        result_bitmap = Bitset.ones(len(fact))
        for index, values in selections:
            if index.length != len(fact):
                raise QueryError(
                    f"bitmap index {index.name!r} covers {index.length} "
                    f"positions, fact table has {len(fact)}"
                )
            if isinstance(values, Bitset):
                merged = values  # a precomputed range/merged bitmap
            else:
                merged = index.bitmap_for_any(values)
            counters.add("bitmaps_fetched", 1)
            result_bitmap.iand(merged)
        counters.add("selected_tuples", result_bitmap.count())

    return consolidate_facts(
        fact,
        group_dimensions,
        lambda: fact.fetch_bitmap(result_bitmap),
        measure,
        aggregate,
        counters,
    )
