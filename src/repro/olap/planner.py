"""Backend choice for consolidation queries.

The paper leaves array/relational integration with the optimizer as
future work but its measurements imply a simple rule: the array wins
except at extremely low star-join selectivity, where the bitmap + fact
file pulls individual tuples while the array must fetch whole chunks
(§5.6: the crossover sits near S = 0.00024).  :func:`choose_backend`
encodes exactly that rule, after a fourth route the paper's own reading
suggests: a consolidation's result is another array, so a declared
grain that covers the query (:mod:`repro.olap.grains`) answers it
before any base design is read.
"""

from __future__ import annotations

from dataclasses import dataclass

# §5.6: bitmap+fact-file beat the array below S = 0.00024; we plan
# conservatively at the paper's observed crossover.  Read at call time;
# EXPLAIN reports it as ``planner.crossover_selectivity``.
DEFAULT_CROSSOVER_SELECTIVITY = 0.00024


@dataclass(frozen=True)
class PlannerInputs:
    """What the planner knows about the physical design and the query."""

    has_array: bool
    has_bitmaps: bool
    has_selections: bool
    estimated_selectivity: float = 1.0
    #: True when any selection is a range predicate, which a value-list
    #: bitmap index can only serve by enumerating the qualifying domain.
    has_range_selections: bool = False
    #: True when a declared grain covers the query and is fresh (or was
    #: just built): the engine found it before asking
    has_grain: bool = False


def choose_backend_explained(inputs: PlannerInputs) -> tuple[str, str]:
    """:func:`choose_backend` plus the *reason* for the choice.

    The reason string is a short stable token ("no-selections",
    "below-crossover", ...) recorded on the query span and in slow-query
    profiles, so a tail-latency investigation can see which planner rule
    fired without re-deriving the selectivity estimate.
    """
    if inputs.has_grain:
        return "rollup", "covering-grain"
    if not inputs.has_selections:
        if inputs.has_array:
            return "array", "no-selections"
        return "starjoin", "no-selections-no-array"
    if not inputs.has_array:
        if inputs.has_bitmaps and not inputs.has_range_selections:
            return "bitmap", "no-array"
        return "starjoin", "no-array-range-or-no-bitmaps"
    crossover = DEFAULT_CROSSOVER_SELECTIVITY
    if (
        inputs.has_bitmaps
        and not inputs.has_range_selections
        and inputs.estimated_selectivity < crossover
    ):
        return "bitmap", (
            f"below-crossover"
            f" (S={inputs.estimated_selectivity:.2g}"
            f" < {crossover:g})"
        )
    return "array", "above-crossover"


def choose_backend(inputs: PlannerInputs) -> str:
    """Pick ``rollup`` / ``array`` / ``starjoin`` / ``bitmap`` for a query.

    - a covering grain: ``rollup``, whatever the selections;
    - no selections: the array consolidation if an array exists, else
      the Starjoin operator;
    - with selections: the array algorithm above the crossover
      selectivity, the bitmap + fact-file algorithm below it (or when
      no array was built and the predicates are equality/IN lists —
      range predicates fall back to Starjoin, because a value-list
      bitmap index cannot serve ``BETWEEN`` without enumerating the
      whole domain).
    """
    return choose_backend_explained(inputs)[0]

