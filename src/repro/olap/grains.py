"""Materialized grains: the planner's ``rollup`` route.

The paper reads a consolidation's result as another OLAP array (§3's
``materialize_as``); a grain is one kept alive.  A :class:`Grain` holds
the vectorized :class:`~repro.core.consolidate.ResultAccumulator` state
of its own consolidation — touch counts and, per measure, ``sum`` /
``min`` / ``max`` columns in the measure's dtype — dense over the cross
product of its members.  So ``count`` is the counts and ``avg`` is
``sum ÷ count``, a cell write moves exactly one position
(:meth:`Grain.folded`), and re-rolling to a coarser shape is two outer
folds and a ``ufunc.at`` (:meth:`Grain.reroll`).

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

from repro.aggregates import blank_column
from repro.core.chunking import ComposedTables, outer_fold
from repro.core.consolidate import ConsolidationSpec, ResultAccumulator
from repro.errors import PlanError, QueryError, ReproError
from repro.obs.memory import SizedStore
from repro.obs.tracer import get_tracer
from repro.util.stats import Counters

#: how each stored column folds, cell into cell (counts fold by ``+``)
FOLDS = {"sum": np.add, "min": np.minimum, "max": np.maximum}

#: the aggregates a grain answers: the columns it keeps, and ``avg``
GRAIN_AGGREGATES = ("sum", "count", "min", "max", "avg")


def walk_columns(array, terms: list[np.ndarray], cells: int, bag):
    """``(counts, columns)`` of one consolidation from one walk of
    ``array``: all three folds fed with the offsets split once (the CUBE
    kernel's shape).  ``terms`` are the accumulator's per-dimension
    target terms; everything read is billed to ``bag``."""
    geometry = array.geometry
    counts = np.zeros(cells, dtype=np.int64)
    shape = (array.n_measures, cells)
    columns = {
        name: blank_column(ufunc, np.dtype(array.dtype), shape)
        for name, ufunc in FOLDS.items()
    }
    tables = ComposedTables(geometry, terms, np.add)
    for chunk in array.walk(range(geometry.n_chunks), None, bag):
        targets = tables.gather(chunk.origin, chunk.halves)
        if targets is None:  # every dimension dropped or one-membered
            targets = np.zeros(len(chunk), dtype=np.int64)
        np.add.at(counts, targets, 1)
        for m, measure in enumerate(chunk.values.T):
            for name, ufunc in FOLDS.items():
                ufunc.at(columns[name][m], targets, measure)
        bag.add("cells_scanned", len(chunk))
    return counts, columns


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
    #: base cells folded into each grain cell
    counts: np.ndarray
    #: ``"sum"`` / ``"min"`` / ``"max"`` → ``(n_measures, cells)`` in the
    #: measures' own dtype (int64 folds stay exact past 2**53)
    columns: dict[str, np.ndarray]

    def __len__(self) -> int:
        """Non-empty cells: the rows a consolidation at this grain has."""
        return int(np.count_nonzero(self.counts))

    @property
    def nbytes(self) -> int:
        return self.counts.nbytes + sum(c.nbytes for c in self.columns.values())

    def folded(self, keys, old, new, generation: int) -> "Grain | None":
        """This grain one cell write later (``old`` → ``new`` at ``keys``;
        ``old`` is ``None`` for a new cell), or ``None`` when only a
        rebuild can tell: the cell leaves a min or max it may have tied."""
        cell = sum(terms[key] for terms, key in zip(self.key_terms, keys))
        new = np.asarray(new, dtype=self.columns["sum"].dtype)
        low, high = self.columns["min"][:, cell], self.columns["max"][:, cell]
        counts = self.counts
        if old is None:
            counts = counts.copy()
            counts[cell] += 1
        elif ((old == low) & (new > low)).any() or ((old == high) & (new < high)).any():
            return None
        patch = {
            "sum": self.columns["sum"][:, cell] + (new if old is None else new - old),
            "min": np.minimum(low, new),
            "max": np.maximum(high, new),
        }
        columns = {}
        for name, column in self.columns.items():
            if (column[:, cell] != patch[name]).any():
                column = column.copy()
                column[:, cell] = patch[name]
            columns[name] = column
        return replace(self, generation=generation, counts=counts, columns=columns)

    def reroll(self, axes, cuts: list, wanted: dict, derive):
        """``(counts, columns)`` of this grain folded to the coarser shape
        ``axes`` (as :attr:`axes`; cells row-major), the cells ``cuts``
        drop left out; ``wanted`` is ``{column: measure indexes}`` and
        ``derive(cube, dim, stored, attr)`` maps a stored level's values
        to a coarser one's.

        The grain being dense, where its cells land is an outer sum of
        one small array per dimension (member → target member's index ×
        stride) and which the cuts keep an outer ``and`` of member masks;
        the non-empty kept cells then fold by ``ufunc.at``.
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
        keep = (self.counts > 0) & outer_fold(np.logical_and, masks)
        picked = np.flatnonzero(keep)
        targets = outer_fold(np.add, terms)[picked]
        counts = np.zeros(cells, dtype=np.int64)
        np.add.at(counts, targets, self.counts[picked])
        columns = {}
        for name, measures in wanted.items():
            held = self.columns[name]
            columns[name] = blank_column(
                FOLDS[name], held.dtype, (len(measures), cells)
            )
            for column, m in zip(columns[name], measures):
                FOLDS[name].at(column, targets, held[m][picked])
        return counts, columns


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
        #: (cube, dim, from_attr, to_attr) -> value map or None
        self._maps: dict[tuple, dict | None] = {}
        #: (cube, dim, attr) -> distinct value count
        self._cardinalities: dict[tuple, int] = {}

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
            registry.register("olap:grains", self.counters, replace=True)
            registry.register_gauge(
                "rollup.resident_rows",
                lambda: float(sum(map(len, self.values()))),
                replace=True,
            )
            registry.register_gauge(
                "rollup.resident_bytes",
                lambda: float(self.resident_bytes()),
                replace=True,
            )
        key = (schema.name, name)
        cube = self.declared.get(schema.name, {})
        if cube.get(name, pairs) != pairs:
            self.pop(key)  # redeclared: the old one is gone
        # copied, never edited: a query choosing beside it reads one whole
        self.declared = {**self.declared, schema.name: {**cube, name: pairs}}
        registry.register_gauge(
            "rollup.rows." + ".".join(key),
            lambda: float(len(self.peek(key) or ())),
            replace=True,
        )

    # -- hierarchy value maps ----------------------------------------------

    def attr_map(self, physical: str, dim: str, attr: str) -> dict:
        """key → attribute value for one dimension."""
        key = (physical, dim, attr, attr)
        cached = self._maps.get(key)
        if cached is None:
            state = self.engine.cube(physical)
            cached = self.engine._dimension_attr_map(state, dim, attr)
            with self._lock:
                self._maps[key] = cached
        return cached

    def derive_map(
        self, physical: str, dim: str, from_attr: str, to_attr: str
    ) -> dict | None:
        """``from_attr`` value → ``to_attr`` value, or ``None`` when
        ``to_attr`` is not functionally determined by ``from_attr``.

        Derivability is *verified*, not assumed: the map is built by
        composing the two key-indexed attribute maps and rejected if any
        ``from`` value would need two different ``to`` values.
        """
        if from_attr == to_attr:
            return None  # identity: callers skip mapping entirely
        key = (physical, dim, from_attr, to_attr)
        with self._lock:
            if key in self._maps:
                return self._maps[key]
        from_map = self.attr_map(physical, dim, from_attr)
        to_map = self.attr_map(physical, dim, to_attr)
        derived: dict | None = {}
        for dim_key, from_value in from_map.items():
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
        key = (physical, dim, attr)
        cached = self._cardinalities.get(key)
        if cached is None:
            cached = len(set(self.attr_map(physical, dim, attr).values()))
            with self._lock:
                self._cardinalities[key] = cached
        return cached

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
        # the grain's own consolidation, resolved but never fed: its
        # IndexToIndex arrays and result strides are the grain's layout
        layout = ResultAccumulator(array, specs)
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
                everything = dict.fromkeys(FOLDS, range(array.n_measures))
                counts, columns = source.reroll(axes, [], everything, self.derive_map)
                break
        else:
            with self.engine.db.metrics.scoped("rollup_build", Counters()) as bag:
                counts, columns = walk_columns(array, terms, layout.total_cells, bag)
        key_terms = [
            dict(zip(dim.keys(), term.tolist())) for dim, term in zip(array.dims, terms)
        ]
        return Grain(physical, axes, key_terms, state.generation, counts, columns)

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
                    missed.append((-len(grain.counts), key))
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
        the measures at ``measure_indexes`` (:meth:`Grain.reroll`).
        ``count`` is the counts and ``avg`` divides Σsum by Σcount in
        Python numbers, as :meth:`ResultAccumulator.rows` does.  Rows
        come out sorted: axis members are sorted and cells row-major.
        """
        axes = [
            (dim, attr, sorted(set(self.attr_map(grain.physical, dim, attr).values())))
            for dim, attr in group_by
        ]
        name = {"avg": "sum", "count": None}.get(aggregate, aggregate)
        counts, columns = grain.reroll(
            axes, cuts, {name: measure_indexes} if name else {}, self.derive_map
        )
        touched = np.flatnonzero(counts)
        touches = counts[touched].tolist()
        measures = [touches] * len(measure_indexes)
        if name:
            measures = columns[name][:, touched].tolist()
        if aggregate == "avg":
            measures = [
                [total / n for total, n in zip(cells, touches)] for cells in measures
            ]
        shape = tuple(len(members) for _, _, members in axes) or (1,)
        groups = [
            list(map(members.__getitem__, index.tolist()))
            for (_, _, members), index in zip(axes, np.unravel_index(touched, shape))
        ]
        self.counters.add("rollup.rows_scanned", len(grain))
        self.counters.add("rollup.cells_emitted", len(touched))
        return list(zip(*groups, *measures))
