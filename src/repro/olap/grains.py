"""Materialized grains: the planner's ``rollup`` route.

The paper reads a consolidation's result as another OLAP array (§3's
``materialize_as``); a grain is one kept alive.  A :class:`Grain` holds
the :class:`~repro.aggregates.ColumnFold` of its own consolidation —
touch counts and, per measure, :data:`GRAIN`'s ``sum`` / ``min`` /
``max`` columns in the measure's dtype — dense over the cross product of
its members.  The route folds through the fold every route runs: a
build is the §4.1 scan (``scan_chunk_range``), a re-roll to a coarser
shape is two outer folds and a ``ColumnFold.merge_from`` into the
coarser cells (:meth:`Grain.reroll`), and an answer finishes through
``ColumnFold.finish``, so ``count`` is the counts and ``avg`` is ``sum ÷
count``.  A cell write moves exactly one position (:meth:`Grain.folded`).

Grains are declared on a loaded cube as ``dimension → level``
(:meth:`OlapEngine.declare_grain
<repro.olap.engine.OlapEngine.declare_grain>`) and live in the engine's
one :class:`GrainStore`, whose :meth:`~GrainStore.choose` is the
route's rule.  A stale grain is built by the query that chose it — a
re-roll from a smaller fresh covering grain, else one walk of the base
array — and a query whose build fails is planned as if no grain covered
it.  A one-cell write folds into every fresh grain; one the fold cannot
follow is rebuilt by the write, and a write without a cell delta leaves
its grains behind for the next query that needs one.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from repro.aggregates import Aggregate, ColumnFold, get_aggregate
from repro.core.chunking import outer_fold
from repro.core.consolidate import (
    ConsolidationSpec,
    ResultAccumulator,
    scan_chunk_range,
)
from repro.errors import PlanError, QueryError, ReproError
from repro.obs.memory import SizedStore
from repro.obs.tracer import get_tracer
from repro.util.stats import Counters

#: a grain's state per measure: a sum, a min and a max column.  Not in
#: the aggregate table, so no query names it; nothing finishes it
GRAIN = Aggregate(
    "grain",
    ((np.add, None, None), (np.minimum, None, None), (np.maximum, None, None)),
    lambda n, cells: cells,
)

#: the aggregates a grain answers: each folds only columns :data:`GRAIN` keeps
GRAIN_AGGREGATES = ("sum", "count", "min", "max", "avg")


@dataclass(frozen=True, eq=False)
class Grain:
    """One generation of one materialized grain.

    Never mutated once built: a write makes the next generation's
    object, sharing every column it did not touch, so a reader holds one
    generation whole and what it was handed never changes under it.
    """

    physical: str
    #: ``(dimension, stored attribute, member values)`` per grain
    #: dimension, in base-cube order; cells are row-major over the members
    axes: tuple[tuple, ...]
    #: per base dimension, key → its contribution to the cell position
    #: (IndexToIndex target × result stride)
    key_terms: list[dict]
    generation: int
    #: the consolidation's state: touch counts and, per measure, the
    #: :data:`GRAIN` columns in the measures' own dtype (int64 folds
    #: stay exact past 2**53)
    fold: ColumnFold

    def __len__(self) -> int:
        """Non-empty cells: the rows a consolidation at this grain has."""
        return int(np.count_nonzero(self.fold.counts))

    @property
    def nbytes(self) -> int:
        fold = self.fold
        return fold.counts.nbytes + sum(c.nbytes for cs in fold.columns for c in cs)

    def folded(self, keys, old, new, generation: int) -> "Grain | None":
        """This grain one cell write later (``old`` → ``new`` at ``keys``;
        ``old`` is ``None`` for a new cell), or ``None`` when only a
        rebuild can tell: the cell leaves a min or max it may have tied."""
        cell = sum(terms[key] for terms, key in zip(self.key_terms, keys))
        fold = self.fold
        # per measure, the cell's GRAIN columns: (sum, min, max)
        total, low, high = np.array([[c[cell] for c in cs] for cs in fold.columns]).T
        new = np.asarray(new, dtype=total.dtype)
        counts = fold.counts
        if old is None:
            counts = counts.copy()
            counts[cell] += 1
        elif ((old == low) & (new > low)).any() or ((old == high) & (new < high)).any():
            return None
        patch = zip(
            total + (new if old is None else new - old),
            np.minimum(low, new),
            np.maximum(high, new),
        )
        columns = [list(measure) for measure in fold.columns]
        for measure, values in zip(columns, patch):
            for i, value in enumerate(values):
                if measure[i][cell] != value:
                    measure[i] = measure[i].copy()
                    measure[i][cell] = value
        return replace(
            self, generation=generation, fold=ColumnFold(fold.aggs, counts, columns)
        )

    def reroll(self, axes, cuts: list, aggs: list, measures, derive) -> ColumnFold:
        """This grain folded to the coarser shape ``axes`` (as
        :attr:`axes`; cells row-major), the cells ``cuts`` drop left
        out, as the fold of ``aggs`` over the grain's measures
        ``measures``: each of its columns is merged from the grain's
        column of the same ``(ufunc, dtype, operand)``.
        ``derive(cube, dim, stored, attr)`` maps a stored level's values
        to a coarser one's.

        The grain being dense, where its cells land is an outer sum of
        one small array per dimension (member → target member's index ×
        stride) and which the cuts keep an outer ``and`` of member masks;
        the non-empty kept cells then merge into the cells they land on
        (:meth:`ColumnFold.merge_from <repro.aggregates.ColumnFold.merge_from>`).
        """
        cells = stride = math.prod(len(members) for _, _, members in axes)
        term_of = {}
        for dim, attr, members in axes:
            stride //= len(members)
            term_of[dim] = (attr, {m: i * stride for i, m in enumerate(members)})
        # a leading one-cell axis leaves a fold as it is and gives a
        # grain of no dimensions its single cell
        terms, masks = [np.zeros(1, dtype=np.int64)], [np.ones(1, dtype=bool)]
        for dim, stored, members in self.axes:

            def seen_at(attr: str) -> list:
                """This dimension's members at a coarser-or-equal level
                (routing verified that it derives from the stored one)."""
                if attr == stored:
                    return members
                mapping = derive(self.physical, dim, stored, attr)
                return [mapping[member] for member in members]

            terms.append(np.zeros(len(members), dtype=np.int64))
            masks.append(np.ones(len(members), dtype=bool))
            if dim in term_of:
                attr, by_member = term_of[dim]
                terms[-1][:] = [by_member[value] for value in seen_at(attr)]
            for cut in cuts:
                if cut.dimension == dim:
                    masks[-1] &= [cut.matches(v) for v in seen_at(cut.attribute)]
        held = self.fold
        picked = np.flatnonzero((held.counts > 0) & outer_fold(np.logical_and, masks))
        kept = ColumnFold(
            aggs,
            held.counts[picked],
            [
                [held.columns[m][GRAIN.columns.index(c)][picked] for c in agg.columns]
                for agg, m in zip(aggs, measures)
            ],
        )
        dtypes = [held.columns[m][0].dtype for m in measures]
        fold = ColumnFold.blank(aggs, dtypes, cells)
        fold.merge_from(kept, outer_fold(np.add, terms)[picked])
        return fold


@dataclass(frozen=True)
class GrainChoice:
    """The covering rule's pick for one query: the grain, why, and the
    other covering grains, smallest first."""

    name: str
    grain: tuple[tuple[str, str], ...]
    reason: str
    candidates: tuple[str, ...]
    estimated_rows: int

    def route(self, grain: Grain | None) -> dict:
        """The ``route`` a result reports: answered from ``grain``, or,
        ``None``, from base because the chosen grain could not be built."""
        built = grain is not None
        return {
            "source": "rollup" if built else "base",
            "rollup": self.name,
            "grain": dict(self.grain),
            "reason": self.reason if built else (
                f"rollup {self.name!r} could not be built; answered from base"
            ),
            "candidates": list(self.candidates),
            "rows_scanned": len(grain) if built else None,
        }


def _levels(schema, dim_name: str) -> tuple[str, ...]:
    """One dimension's attributes finest first: the key, then its levels."""
    dim = schema.dimension(dim_name)
    return (dim.key, *dim.level_names)


class GrainStore(SizedStore):
    """The engine's grains: what each loaded cube declares, and the
    latest :class:`Grain` of each, keyed ``(cube, grain name)`` and
    charged its columns' ``nbytes``.

    A :meth:`get` is a routed hit, so :meth:`reclaim` evicts the
    coldest-routed grain first; a :meth:`patch` leaves a grain's place
    (and its bytes: a fold keeps every column's shape) as they were.
    Builds and patches run under the engine's single caller (the
    service's engine lock); ``_lock`` guards the maps a reader shares.
    """

    _pressure_counter = "rollup.evictions"

    def __init__(self, engine) -> None:
        # the declarations bound the grains, not a count cap
        super().__init__(capacity=sys.maxsize)
        self.engine = engine
        #: cube → grain name → ``((dimension, level), ...)``, cube order
        self.declared: dict[str, dict[str, tuple]] = {}
        #: (cube, dim, from_attr, to_attr) -> derived value map or None
        self._maps: dict[tuple, dict | None] = {}

    def declare(self, schema, name: str, grain: dict) -> None:
        """Record grain ``name`` of ``schema``'s cube (see
        :meth:`OlapEngine.declare_grain
        <repro.olap.engine.OlapEngine.declare_grain>`)."""
        for dim_name, level in grain.items():
            if level not in _levels(schema, dim_name):
                raise QueryError(
                    f"grain {name!r}: dimension {dim_name!r} has no "
                    f"attribute {level!r}"
                )
        pairs = tuple(
            (dim.name, grain[dim.name])
            for dim in schema.dimensions
            if dim.name in grain
        )
        registry = self.engine.db.metrics
        if not self.declared:  # the store's metrics, once per engine
            registry.register("olap:grains", self.counters)
            registry.register_gauge(
                "rollup.resident_rows",
                lambda: float(sum(map(len, self.values()))),
            )
            registry.register_gauge(
                "rollup.resident_bytes", lambda: float(self.resident_bytes())
            )
        key = (schema.name, name)
        cube = self.declared.get(schema.name, {})
        if name not in cube:  # the grain's gauge, once per grain
            registry.register_gauge(
                "rollup.rows." + ".".join(key),
                lambda: float(len(self.peek(key) or ())),
            )
        elif cube[name] != pairs:
            self.pop(key)  # redeclared: the old one is gone
        # copied, never edited: a query choosing beside it reads one whole
        self.declared = {**self.declared, schema.name: {**cube, name: pairs}}

    # -- hierarchy value maps ----------------------------------------------

    def derive_map(
        self, physical: str, dim: str, from_attr: str, to_attr: str
    ) -> dict | None:
        """``from_attr`` value → ``to_attr`` value, or ``None`` when
        ``to_attr`` is not functionally determined by ``from_attr``.

        Derivability is *verified*, not assumed: the map is built by
        composing the two key-indexed attribute maps of the cube's
        :class:`~repro.olap.engine.DimensionStats` and rejected if any
        ``from`` value would need two different ``to`` values.
        """
        if from_attr == to_attr:
            return None  # identity: callers skip mapping entirely
        key = (physical, dim, from_attr, to_attr)
        with self._lock:
            if key in self._maps:
                return self._maps[key]
        stats = self.engine.cube(physical).dim_stats
        to_map = stats.values(dim, to_attr)
        derived: dict | None = {}
        for dim_key, from_value in stats.values(dim, from_attr).items():
            to_value = to_map[dim_key]
            seen = derived.get(from_value, to_value)
            if seen != to_value:
                derived = None  # not functional: to varies within from
                break
            derived[from_value] = to_value
        with self._lock:
            self._maps[key] = derived
        return derived

    def cardinality(self, physical: str, dim: str, attr: str) -> int:
        """Distinct values of one dimension attribute (exact)."""
        return self.engine.cube(physical).dim_stats.cardinality(dim, attr)

    def estimated_rows(self, physical: str, grain) -> int:
        """Upper bound on a grain's row count (cardinality product)."""
        return math.prod(
            self.cardinality(physical, dim, attr) for dim, attr in grain
        )

    # -- the covering rule ---------------------------------------------------

    def _covers(self, schema, grain, referenced: dict[str, int]) -> bool:
        """Whether every referenced (dim → finest-needed level index) is
        present in the grain at a finer-or-equal level it derives from."""
        stored = dict(grain)
        for dim_name, needed_index in referenced.items():
            attr = stored.get(dim_name)
            if attr is None:
                return False  # dimension consolidated away entirely
            levels = _levels(schema, dim_name)
            if levels.index(attr) > needed_index:
                return False  # stored coarser than requested
            needed = levels[needed_index]
            if attr != needed and (
                self.derive_map(schema.name, dim_name, attr, needed) is None
            ):
                return False
        return True

    def choose(self, schema, referenced) -> GrainChoice | None:
        """The smallest declared grain of ``schema``'s cube covering the
        ``(dimension, attribute)`` pairs ``referenced``, or ``None``.

        A grain covers when every referenced dimension is in it at a
        finer-or-equal level from which the finest referenced one is
        *verified* to derive; the fewest estimated rows (the product of
        its levels' cardinalities) wins, ties by name."""
        declared = self.declared.get(schema.name)
        if not declared:
            return None
        finest: dict[str, int] = {}
        for dim_name, attr in referenced:
            index = _levels(schema, dim_name).index(attr)
            finest[dim_name] = min(finest.get(dim_name, index), index)
        sized = sorted(
            (self.estimated_rows(schema.name, grain), name, grain)
            for name, grain in declared.items()
            if self._covers(schema, grain, finest)
        )
        if not sized:
            return None
        rows, name, grain = sized[0]
        return GrainChoice(
            name=name,
            grain=grain,
            reason=(
                f"rollup {name!r} is the smallest of {len(sized)} "
                "covering grain(s)"
            ),
            candidates=tuple(name for _, name, _ in sized),
            estimated_rows=rows,
        )

    # -- freshness, builds and writes ------------------------------------------

    def fresh(self, physical: str, name: str) -> Grain | None:
        """The stored grain if it is at the cube's generation, else
        ``None``; nothing is built."""
        grain = self.get((physical, name))
        if grain is None or grain.generation != self.engine.cube_generation(physical):
            return None
        return grain

    def rows_for(self, state, name: str) -> Grain:
        """The grain, built now when it is behind ``state``'s generation;
        raises what the build raises (a missing array, an I/O fault).
        The caller is the engine's one caller (under the service's
        engine lock), so no write moves the generation meanwhile."""
        physical = state.schema.name
        grain = self.fresh(physical, name)
        if grain is None:
            with get_tracer().span("rollup.build", cube=physical, rollup=name):
                grain = self._build(state, name)
            self.counters.add("rollup.rebuilds")
            # a growth step: the memory budget is checked here
            self.put((physical, name), grain, grain.nbytes)
        return grain

    def _build(self, state, name: str) -> Grain:
        """One grain at ``state``'s generation: re-rolled from the
        smallest fresh resident grain that covers it (building a grain is
        routing its own definition), else from one walk of the base array."""
        array = state.array
        if array is None:
            raise PlanError("a rollup grain needs the cube's array backend")
        physical = state.schema.name
        level = dict(self.declared[physical][name])
        specs = [
            ConsolidationSpec.drop()
            if dim not in level
            else ConsolidationSpec.key()
            if level[dim] == state.schema.dimension(dim).key
            else ConsolidationSpec.level(level[dim])
            for dim in array.dim_names
        ]
        # the grain's own consolidation: its IndexToIndex arrays and
        # result strides are the grain's layout, its fold the grain's
        layout = ResultAccumulator(array, specs, GRAIN)
        terms = layout.target_terms()
        axes = tuple(
            (dim, level[dim], layout.i2is[d].target_keys)
            for d, dim in enumerate(array.dim_names)
            if dim in level
        )
        for source_name in self.choose(state.schema, level.items()).candidates:
            source = self.peek((physical, source_name))
            if (
                source_name != name
                and source is not None
                and source.generation == state.generation
            ):
                fold = source.reroll(
                    axes, [], layout.aggs, range(array.n_measures), self.derive_map
                )
                break
        else:
            with self.engine.db.metrics.scoped("rollup_build", Counters()) as bag:
                scan_chunk_range(
                    array, layout, range(array.geometry.n_chunks), counters=bag
                )
            fold = layout.state()
        key_terms = [
            dict(zip(dim.keys(), term.tolist())) for dim, term in zip(array.dims, terms)
        ]
        return Grain(physical, axes, key_terms, state.generation, fold)

    def patch(self, state, delta: tuple) -> None:
        """Fold one cell write (``(keys, old, new)``) into every grain of
        ``state``'s cube that was fresh before it, stamped with the new
        generation.  A grain the fold cannot follow (:meth:`Grain.folded`)
        is rebuilt here, by the write — finest first, so the coarser
        re-roll: a reader finds after a write the grains it found before
        it."""
        physical, generation = state.schema.name, state.generation
        missed = []
        with self._lock:
            for key, grain in list(self._entries.items()):
                if (grain.physical, grain.generation) != (physical, generation - 1):
                    continue
                patched = grain.folded(*delta, generation)
                if patched is None:
                    missed.append((-len(grain.fold.counts), key))
                else:
                    self._entries[key] = patched
                    self.counters.add("rollup.deltas")
        for _, (_, name) in sorted(missed):
            self.counters.add("rollup.delta_misses")
            try:
                self.rows_for(state, name)
            except ReproError:  # the write is durable: its grain stays behind
                self.counters.add("rollup.refresh_failures")

    def _label(self, key) -> str:
        return "/".join(key)

    # -- answering -----------------------------------------------------------

    def answer(
        self, grain: Grain, group_by, cuts, aggregate: str,
        measure_indexes: list[int],
    ) -> list[tuple]:
        """Re-aggregate ``grain`` to ``group_by`` (``(dimension,
        attribute)`` pairs), the cells ``cuts`` keep (anything with
        ``dimension``, ``attribute`` and ``matches``), ``aggregate`` over
        the measures at ``measure_indexes`` (:meth:`Grain.reroll`),
        finished on Python numbers as every route finishes
        (:meth:`ColumnFold.finish <repro.aggregates.ColumnFold.finish>`).
        Rows come out sorted: axis members are sorted and cells row-major.
        """
        stats = self.engine.cube(grain.physical).dim_stats
        axes = [(dim, attr, stats.members(dim, attr)) for dim, attr in group_by]
        aggs = [get_aggregate(aggregate)] * len(measure_indexes)
        fold = grain.reroll(axes, cuts, aggs, measure_indexes, self.derive_map)
        touched = np.flatnonzero(fold.counts)
        shape = tuple(len(members) for _, _, members in axes) or (1,)
        groups = [
            list(map(members.__getitem__, index.tolist()))
            for (_, _, members), index in zip(axes, np.unravel_index(touched, shape))
        ]
        self.counters.add("rollup.rows_scanned", len(grain))
        self.counters.add("rollup.cells_emitted", len(touched))
        return list(zip(*groups, *fold.finish(touched)))
