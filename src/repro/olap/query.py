"""Consolidation queries (§2.1's generalized consolidation).

A :class:`ConsolidationQuery` captures the paper's query template::

    SELECT P, F_1(m_1), ..., F_p(m_p)
    FROM   C(D_1(A_11), ..., D_n(A_n1))
    WHERE  φ(D_1) AND ... AND φ(D_n)
    GROUP BY G

``group_by`` maps dimension names to the attribute grouped on (the key
attribute itself is allowed); dimensions absent from ``group_by`` are
aggregated away.  ``selections`` are equality / IN-list predicates on
dimension attributes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import QueryError
from repro.olap.model import CubeSchema


@dataclass(frozen=True)
class SelectionPredicate:
    """``dimension.attribute IN values`` or ``BETWEEN low AND high``.

    Equality is a 1-tuple of values.  For a range predicate leave
    ``values`` as ``None`` and set ``low``/``high`` (inclusive; either
    bound may stay open).  ``values``/``low``/``high`` are keyword-only
    (the PR 2 positional form is gone); prefer the :meth:`in_list` /
    :meth:`between` constructors or the fluent
    :meth:`ConsolidationQuery.builder`.
    """

    dimension: str
    attribute: str
    values: tuple | None = field(default=None, kw_only=True)
    low: object = field(default=None, kw_only=True)
    high: object = field(default=None, kw_only=True)

    def __post_init__(self):
        is_range = self.low is not None or self.high is not None
        if is_range and self.values is not None:
            raise QueryError(
                f"selection on {self.dimension}.{self.attribute}: give "
                "either values or a range, not both"
            )
        if not is_range and not self.values:
            raise QueryError(
                f"selection on {self.dimension}.{self.attribute} needs "
                "at least one value"
            )

    @classmethod
    def in_list(
        cls, dimension: str, attribute: str, *values
    ) -> "SelectionPredicate":
        """``dimension.attribute IN (values...)`` (equality = one value)."""
        return cls(dimension, attribute, values=tuple(values))

    @classmethod
    def between(
        cls,
        dimension: str,
        attribute: str,
        low: object = None,
        high: object = None,
    ) -> "SelectionPredicate":
        """``dimension.attribute BETWEEN low AND high`` (bounds optional)."""
        return cls(dimension, attribute, low=low, high=high)

    @property
    def is_range(self) -> bool:
        """Whether this is a BETWEEN predicate."""
        return self.values is None

    def matches(self, value) -> bool:
        """Whether one attribute value satisfies the predicate."""
        if self.is_range:
            if self.low is not None and value < self.low:
                return False
            if self.high is not None and value > self.high:
                return False
            return True
        return value in self.values


@dataclass(frozen=True)
class ConsolidationQuery:
    """A consolidation with optional selections (Queries 1, 2 and 3)."""

    cube: str
    group_by: tuple[tuple[str, str], ...]  # (dimension, attribute) pairs
    selections: tuple[SelectionPredicate, ...] = ()
    aggregate: str = "sum"
    measures: tuple[str, ...] | None = None  # None = all cube measures

    def __post_init__(self):
        if not self.group_by:
            raise QueryError("a consolidation needs at least one group-by")
        dims = [d for d, _ in self.group_by]
        if len(set(dims)) != len(dims):
            raise QueryError(f"dimension repeated in group-by: {dims}")

    @classmethod
    def build(
        cls,
        cube: str,
        group_by: dict[str, str],
        selections: list[SelectionPredicate] | None = None,
        aggregate: str = "sum",
        measures: list[str] | None = None,
    ) -> "ConsolidationQuery":
        """Convenience constructor taking plain dicts/lists."""
        return cls(
            cube=cube,
            group_by=tuple(group_by.items()),
            selections=tuple(selections or ()),
            aggregate=aggregate,
            measures=tuple(measures) if measures is not None else None,
        )

    @classmethod
    def builder(cls, cube: str) -> "QueryBuilder":
        """Start a fluent builder for a query against ``cube``::

            query = (ConsolidationQuery.builder("sales")
                     .group_by("product", "type")
                     .where_in("store", "region", "West")
                     .where_between("time", "month", 1, 6)
                     .aggregate("volume", "sum")
                     .build())

        *How* it runs is not part of the query: pass a ``backend`` name
        where it executes.
        """
        return QueryBuilder(cube)

    @property
    def group_dims(self) -> tuple[str, ...]:
        """Dimensions appearing in the group-by, in declaration order."""
        return tuple(d for d, _ in self.group_by)

    def group_attr(self, dimension: str) -> str:
        """The attribute one dimension groups on."""
        for d, attr in self.group_by:
            if d == dimension:
                return attr
        raise QueryError(f"dimension {dimension!r} is not in the group-by")

    @property
    def selected_dims(self) -> tuple[str, ...]:
        """Dimensions carrying at least one selection."""
        seen: list[str] = []
        for s in self.selections:
            if s.dimension not in seen:
                seen.append(s.dimension)
        return tuple(seen)

    def validate(self, schema: CubeSchema) -> None:
        """Check every referenced dimension/attribute/measure exists."""
        if self.cube != schema.name:
            raise QueryError(
                f"query targets cube {self.cube!r}, schema is {schema.name!r}"
            )
        for dim_name, attr in self.group_by:
            dim = schema.dimension(dim_name)
            if attr != dim.key and attr not in dim.level_names:
                raise QueryError(
                    f"dimension {dim_name!r} has no attribute {attr!r}"
                )
        for sel in self.selections:
            dim = schema.dimension(sel.dimension)
            if sel.attribute != dim.key and sel.attribute not in dim.level_names:
                raise QueryError(
                    f"dimension {sel.dimension!r} has no attribute "
                    f"{sel.attribute!r}"
                )
        if self.measures is not None:
            known = {m.name for m in schema.measures}
            for m in self.measures:
                if m not in known:
                    raise QueryError(f"cube has no measure {m!r}")


class QueryBuilder:
    """Fluent construction of a :class:`ConsolidationQuery`.

    Each method returns the builder, so calls chain; :meth:`build`
    produces the canonical frozen dataclass.  The builder is the
    friendly face — the dataclass stays the immutable form every layer
    (fingerprinting, caching, execution) consumes.
    """

    def __init__(self, cube: str):
        self._cube = cube
        self._group_by: list[tuple[str, str]] = []
        self._selections: list[SelectionPredicate] = []
        self._aggregate: str | None = None
        self._measures: list[str] | None = None

    def group_by(self, dimension: str, attribute: str) -> "QueryBuilder":
        """Group on one dimension attribute (order fixes output order)."""
        self._group_by.append((dimension, attribute))
        return self

    def where_in(
        self, dimension: str, attribute: str, *values
    ) -> "QueryBuilder":
        """Keep cells whose attribute is one of ``values``."""
        self._selections.append(
            SelectionPredicate.in_list(dimension, attribute, *values)
        )
        return self

    def where_between(
        self,
        dimension: str,
        attribute: str,
        low: object = None,
        high: object = None,
    ) -> "QueryBuilder":
        """Keep cells whose attribute lies in ``[low, high]`` (inclusive)."""
        self._selections.append(
            SelectionPredicate.between(dimension, attribute, low, high)
        )
        return self

    def aggregate(self, measure: str, fn: str = "sum") -> "QueryBuilder":
        """Aggregate ``measure`` with ``fn``.

        Call once per projected measure; the query template applies one
        aggregate function across all of them (§2.1), so every call
        must name the same ``fn``.
        """
        if self._aggregate is not None and fn != self._aggregate:
            raise QueryError(
                f"a consolidation applies one aggregate to all measures; "
                f"got {self._aggregate!r} then {fn!r}"
            )
        self._aggregate = fn
        if self._measures is None:
            self._measures = []
        if measure not in self._measures:
            self._measures.append(measure)
        return self

    def build(self) -> ConsolidationQuery:
        """The immutable query (validation happens in the dataclass)."""
        return ConsolidationQuery(
            cube=self._cube,
            group_by=tuple(self._group_by),
            selections=tuple(self._selections),
            aggregate=self._aggregate if self._aggregate is not None else "sum",
            measures=(
                tuple(self._measures) if self._measures is not None else None
            ),
        )
