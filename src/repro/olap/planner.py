"""Backend choice for consolidation queries.

The paper leaves array/relational integration with the optimizer as
future work but its measurements imply a simple rule: the array wins
except at extremely low star-join selectivity, where the bitmap + fact
file pulls individual tuples while the array must fetch whole chunks
(§5.6: the crossover sits near S = 0.00024).  :func:`choose_backend`
encodes exactly that rule.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import PlanError

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


def choose_backend_explained(inputs: PlannerInputs) -> tuple[str, str]:
    """:func:`choose_backend` plus the *reason* for the choice.

    The reason string is a short stable token ("no-selections",
    "below-crossover", ...) recorded on the query span and in slow-query
    profiles, so a tail-latency investigation can see which planner rule
    fired without re-deriving the selectivity estimate.
    """
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
    """Pick ``array`` / ``starjoin`` / ``bitmap`` for a query.

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


def require_backend_available(backend: str, available: set[str]) -> None:
    """Raise :class:`PlanError` when a requested backend was not built."""
    if backend not in available:
        raise PlanError(
            f"backend {backend!r} not available for this cube; built: "
            f"{sorted(available)}"
        )
