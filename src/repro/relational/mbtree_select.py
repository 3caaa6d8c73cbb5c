"""The "skipping multi-attribute B-tree" selection baseline (§4.4).

The paper tested, alongside bitmaps, "a specialized 'skipping
multi-attribute B-tree' algorithm" (detailed only in the [RQZN] working
paper, which never circulated); bitmaps dominated it.  This module
reconstructs the standard algorithm that name describes — an **index
skip scan** over a composite B-tree on the fact table's foreign keys:

- the index keys are tuples ``(d0, d1, ..., dn-1)`` in dimension order,
  values are fact tuple numbers;
- a selection supplies, per dimension, the sorted list of key values
  that qualify;
- the scan walks the leaf chain collecting qualifying entries, and
  whenever an entry violates some dimension's list it computes the
  *next possible qualifying key* and re-seeks ("skips") the B-tree
  there, bypassing whole subtrees of non-qualifying combinations.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Sequence

from repro.index.btree import BTree
from repro.obs.tracer import get_tracer
from repro.relational.fact_file import FactFile
from repro.relational.star_join import DimensionJoinSpec, consolidate_facts
from repro.util.stats import Counters


def _first_candidate(allowed: list[list]) -> tuple | None:
    if any(not lst for lst in allowed):
        return None
    return tuple(lst[0] for lst in allowed)


def _advance(key: tuple, allowed: list[list], dim: int) -> tuple | None:
    """Smallest qualifying key whose prefix up to ``dim`` exceeds ``key``.

    Advances dimension ``dim`` to its next allowed value strictly above
    ``key[dim]``, carrying into earlier dimensions when a list is
    exhausted; all later dimensions reset to their minimum.
    """
    while dim >= 0:
        lst = allowed[dim]
        position = bisect_right(lst, key[dim])
        if position < len(lst):
            return (
                key[:dim]
                + (lst[position],)
                + tuple(allowed[d][0] for d in range(dim + 1, len(allowed)))
            )
        dim -= 1
    return None


def skip_scan(
    tree: BTree,
    allowed: Sequence[Sequence],
    counters: Counters | None = None,
) -> list[int]:
    """All values whose composite key qualifies on every dimension.

    ``allowed[d]`` is the collection of qualifying values for key
    position ``d``.  Returns values in key order.
    """
    counters = counters if counters is not None else Counters()
    allowed_sorted = [sorted(set(lst)) for lst in allowed]
    allowed_sets = [set(lst) for lst in allowed_sorted]
    ndim = len(allowed_sorted)
    out: list[int] = []

    candidate = _first_candidate(allowed_sorted)
    while candidate is not None:
        counters.add("mbtree_seeks")
        reseek_at = None
        for key, value in tree.range_search(low=candidate):
            violating = next(
                (d for d in range(ndim) if key[d] not in allowed_sets[d]),
                None,
            )
            if violating is None:
                out.append(value)
                counters.add("mbtree_hits")
                continue
            # compute the next possibly-qualifying key and re-seek there
            lst = allowed_sorted[violating]
            position = bisect_left(lst, key[violating])
            if position < len(lst):
                reseek_at = (
                    key[:violating]
                    + (lst[position],)
                    + tuple(
                        allowed_sorted[d][0]
                        for d in range(violating + 1, ndim)
                    )
                )
                # the candidate must be strictly beyond the current key,
                # else we would loop on it forever
                if reseek_at <= key:
                    reseek_at = _advance(key, allowed_sorted, violating)
            else:
                reseek_at = _advance(key, allowed_sorted, violating - 1) if violating else None
            break
        else:
            return out  # leaf chain exhausted
        candidate = reseek_at
    return out


def mbtree_select_consolidate(
    fact: FactFile,
    group_dimensions: list[DimensionJoinSpec],
    tree: BTree,
    allowed: Sequence[Sequence],
    measure: str | list[str],
    aggregate: str = "sum",
    counters: Counters | None = None,
) -> list[tuple]:
    """Skip-scan the composite index, fetch the tuples, aggregate.

    Output rows match the other selection algorithms' exactly.
    """
    counters = counters if counters is not None else Counters()
    with get_tracer().span("skip_scan", dimensions=len(allowed)):
        positions = skip_scan(tree, allowed, counters)
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
