"""Standard B-tree selection baseline (mentioned, and dominated, in §4.4).

The paper tested "standard B-tree indexing" before settling on bitmaps;
we keep it as an extra baseline.  Each selected dimension contributes a
B-tree over the fact table's foreign-key column (key value → tuple
numbers).  Selection resolves dimension predicates to key lists, probes
the B-trees for position lists, intersects them, fetches and
aggregates.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.errors import QueryError
from repro.index.btree import BTree
from repro.obs.tracer import get_tracer
from repro.relational.fact_file import FactFile
from repro.relational.star_join import DimensionJoinSpec, consolidate_facts
from repro.util.stats import Counters


def btree_select_consolidate(
    fact: FactFile,
    group_dimensions: list[DimensionJoinSpec],
    selections: list[tuple[BTree, Iterable]],
    measure: str | list[str],
    aggregate: str = "sum",
    counters: Counters | None = None,
) -> list[tuple]:
    """B-tree probe, position-list intersection, fetch, aggregate.

    ``selections`` pairs a fact-column B-tree (key → tuple numbers)
    with the matching dimension key values.  Output rows match
    :func:`~repro.relational.star_join.star_join_consolidate`.
    """
    counters = counters if counters is not None else Counters()
    with get_tracer().span("btree_probe", selections=len(selections)):
        positions: set[int] | None = None
        for tree, keys in selections:
            found: set[int] = set()
            for key in keys:
                found.update(tree.search(key))
                counters.add("btree_probes")
            positions = found if positions is None else positions & found
            if not positions:
                break
        if positions is None:
            raise QueryError(
                "btree_select_consolidate needs at least one selection"
            )
        counters.add("selected_tuples", len(positions))

    return consolidate_facts(
        fact,
        group_dimensions,
        lambda: fact.get_many(sorted(positions)),
        measure,
        aggregate,
        counters,
        tuples=len(positions),
    )
