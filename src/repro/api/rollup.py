"""The rollup router: multi-grain materialized aggregates + routing.

The AppLovin pre-aggregation strategy: maintain a small family of
aggregates materialized at declared grains, route each API request to
the **coarsest covering** grain, and fall back to base-cube
consolidation when nothing covers.  A rollup covers a request when
every dimension the request references (drilldown *or* cut) is present
in the grain at a finer-or-equal hierarchy level, so the requested
attribute is a function of the stored one; every API aggregate
navigates (a :class:`~repro.api.grain.Grain` carries counts, sums, mins
and maxs).

Grains are **built once, before the first request**
(:meth:`RollupRouter.materialize`), **patched by the write** (the
engine's write listener folds a cell's ``(old, new)`` into every fresh
grain) and **re-rolled by numpy**.  What a delta cannot express —
appends, an array rebuild, recovery, an evicted grain — leaves the
grain behind the cube generation, and the next request routed to it
rebuilds it inline (:meth:`RollupRouter.rows_for`, under the engine
lock).  That build is one chunk walk, or a re-roll from a finer fresh
grain: the work the base fallback it replaces would have done, so no
background worker is needed.  A build that fails answers its request
from base.  The grains sit on the memory ledger as a
:class:`GrainStore`.  Routing surfaces through EXPLAIN as a
``rollup.route`` plan node whose ANALYZE actuals bind to registry
counter deltas, like every engine plan node.
"""

from __future__ import annotations

import sys
import threading
from collections.abc import Hashable
from dataclasses import dataclass

import numpy as np

from repro.api.grain import FOLDS, Grain, walk_columns
from repro.api.model import LogicalCube, RollupDecl
from repro.core.consolidate import ConsolidationSpec, ResultAccumulator
from repro.errors import PlanError, ReproError
from repro.obs.memory import SizedStore
from repro.obs.tracer import get_tracer
from repro.util.stats import Counters


@dataclass(frozen=True)
class RouteDecision:
    """Where one aggregate request will be answered."""

    source: str  # "rollup" or "base"
    rollup: RollupDecl | None
    reason: str
    candidates: tuple[str, ...]
    estimated_rows: int | None = None


class GrainStore(SizedStore):
    """The stored grains, ``(logical cube, rollup name)`` → the grain's
    latest :class:`Grain`, charged its columns' ``nbytes``.

    A :meth:`get` is a routed hit, so :meth:`reclaim` evicts the
    coldest-routed grain first; a :meth:`patch` leaves a grain's place
    (and its bytes: a fold keeps every column's shape) as they were.
    """

    _pressure_counter = "rollup.evictions"

    def __init__(self) -> None:
        # the model's declarations bound the grains, not a count cap
        super().__init__(capacity=sys.maxsize)

    def patch(self, physical: str, delta: tuple, generation: int) -> list:
        """Fold one cell write into every grain of ``physical`` that was
        fresh before it; the keys of the grains the fold cannot follow
        (:meth:`Grain.folded`), finest first."""
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
        return [key for _, key in sorted(missed)]

    def _label(self, key: Hashable) -> str:
        return "/".join(key)


class RollupRouter:
    """Routes aggregate requests onto materialized multi-grain rollups.

    Thread-safe: ``_lock`` only guards the hierarchy maps, never a
    build.  Builds and the write listener both run under the service's
    engine lock, so a grain is built from, and patched against, one
    generation.
    """

    def __init__(self, engine, service, registry=None):
        self.engine = engine
        self.service = service
        self._registry = registry
        self._store = GrainStore()
        self.counters = self._store.counters
        self._lock = threading.Lock()
        self._declared: dict[tuple, tuple[LogicalCube, RollupDecl]] = {}
        #: (physical cube, dim, from_attr, to_attr) -> value map or None
        self._maps: dict[tuple, dict | None] = {}
        #: (physical cube, dim, attr) -> distinct value count
        self._cardinalities: dict[tuple, int] = {}
        engine.add_write_listener(self._on_write)
        # an evicted grain costs a rebuild on next demand: reclaimed
        # after results and decoded chunks, before plans and traces
        memory = getattr(service, "memory", None)
        if memory is not None:
            memory.register_store("rollup_grains", self._store, cost_rank=2, share=0.25)
        if registry is not None:
            registry.register("api:rollup", self.counters, replace=True)
            for name, read in (
                ("rollup.resident_rows", self.resident_rows),
                ("rollup.resident_bytes", self.resident_bytes),
            ):
                registry.register_gauge(
                    name, lambda read=read: float(read()), replace=True
                )

    # -- hierarchy value maps ----------------------------------------------

    def _attr_map(self, physical: str, dim: str, attr: str) -> dict:
        """key → attribute value for one physical dimension."""
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
        from_map = self._attr_map(physical, dim, from_attr)
        to_map = self._attr_map(physical, dim, to_attr)
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
            cached = len(set(self._attr_map(physical, dim, attr).values()))
            with self._lock:
                self._cardinalities[key] = cached
        return cached

    # -- routing ------------------------------------------------------------

    def estimated_rows(self, cube: LogicalCube, rollup: RollupDecl) -> int:
        """Upper bound on a rollup's row count (cardinality product)."""
        rows = 1
        for dim, attr in rollup.grain:
            rows *= self.cardinality(cube.cube, dim, attr)
        return rows

    def _covers(
        self, cube: LogicalCube, rollup: RollupDecl, referenced: dict[str, int]
    ) -> bool:
        """Whether every referenced (dim → coarsest-needed level index)
        is present in the grain at a finer-or-equal level."""
        grain = rollup.grain_dict()
        for dim_name, needed_index in referenced.items():
            grain_attr = grain.get(dim_name)
            if grain_attr is None:
                return False  # dimension consolidated away entirely
            dim = cube.dimension(dim_name)
            if dim.level_index(grain_attr) > needed_index:
                return False  # stored coarser than requested
            needed = dim.hierarchy[needed_index]
            # the requested level must be derivable from the stored one
            if grain_attr != needed and (
                self.derive_map(cube.cube, dim_name, grain_attr, needed) is None
            ):
                return False
        return True

    def route(
        self, cube: LogicalCube, group_by: list[tuple[str, str]], cuts: list,
        aggregate: str,
    ) -> RouteDecision:
        """Pick the smallest covering rollup, or fall back to base.

        ``cuts`` items carry ``dimension`` and ``attribute`` fields (see
        :class:`repro.api.server.Cut`).  ``aggregate`` does not narrow
        the choice: every grain carries counts, sums, mins and maxs.
        """
        referenced: dict[str, int] = {}
        for dim_name, attr in list(group_by) + [
            (c.dimension, c.attribute) for c in cuts
        ]:
            index = cube.dimension(dim_name).level_index(attr)
            referenced[dim_name] = min(referenced.get(dim_name, index), index)
        sized = sorted(
            (self.estimated_rows(cube, r), r.name, r)
            for r in cube.rollups
            if self._covers(cube, r, referenced)
        )
        if not sized:
            return RouteDecision(
                "base", None, "no declared rollup covers the request", ()
            )
        rows, _, chosen = sized[0]
        return RouteDecision(
            source="rollup",
            rollup=chosen,
            reason=(
                f"rollup {chosen.name!r} is the smallest of "
                f"{len(sized)} covering grain(s)"
            ),
            candidates=tuple(name for _, name, _ in sized),
            estimated_rows=rows,
        )

    # -- materialization -----------------------------------------------------

    def materialize(self, cube: LogicalCube) -> None:
        """Build every declared grain of ``cube`` now, finest first, so
        each coarser one re-rolls from a resident one.  A cube that is
        not loaded or is degraded is left to its first request."""
        try:
            for rollup in sorted(
                cube.rollups, key=lambda r: -self.estimated_rows(cube, r)
            ):
                self.rows_for(cube, rollup)
        except ReproError:
            self.counters.add("rollup.refresh_failures")

    def try_rows(
        self, cube: LogicalCube, rollup: RollupDecl, aggregate: str | None = None
    ) -> Grain | None:
        """The stored grain if it is at the cube's generation, else
        ``None``; nothing is built.  Every aggregate rides in a grain,
        whichever one the caller names."""
        grain = self._store.get((cube.name, rollup.name))
        if grain is None or grain.generation != self.engine.cube_generation(cube.cube):
            return None
        return grain

    def rows_for(self, cube: LogicalCube, rollup: RollupDecl, aggregate=None) -> Grain:
        """The materialized grain, built now when it is behind the cube
        generation — by the request that needs it, the write that could
        not patch it, or start-up.  Raises what the build raises (a
        degraded cube, an I/O fault); the caller decides what that costs."""
        grain = self.try_rows(cube, rollup)
        if grain is not None:
            return grain
        key = (cube.name, rollup.name)
        with self.service.engine_access(cube.cube) as state:
            # under the engine lock no write can move the generation; a
            # write, or a request that waited here first, may have made
            # the grain fresh
            grain = self.try_rows(cube, rollup)
            if grain is not None:
                return grain
            with get_tracer().span("rollup.build", cube=cube.name, rollup=rollup.name):
                grain = self._build(cube, rollup, state)
            self.counters.add("rollup.rebuilds")
            self._declared[key] = (cube, rollup)
            # a growth step: the memory budget is checked here
            self._store.put(key, grain, grain.nbytes)
        if self._registry is not None:
            self._registry.register_gauge(
                "rollup.rows." + ".".join(key),
                lambda: float(len(self._store.peek(key) or ())),
                replace=True,
            )
        return grain

    def _build(self, cube: LogicalCube, rollup: RollupDecl, state) -> Grain:
        """One grain at ``state``'s generation: re-rolled from the
        smallest fresh resident grain that covers it (building a grain is
        routing its own definition), else from one walk of the base array."""
        array = state.array
        if array is None:
            raise PlanError("a rollup grain needs the cube's array backend")
        level = rollup.grain_dict()
        specs = [
            ConsolidationSpec.drop()
            if name not in level
            else ConsolidationSpec.key()
            if level[name] == state.schema.dimension(name).key
            else ConsolidationSpec.level(level[name])
            for name in array.dim_names
        ]
        # the grain's own consolidation, resolved but never fed: its
        # IndexToIndex arrays and result strides are the grain's layout
        layout = ResultAccumulator(array, specs)
        terms = layout.target_terms()
        axes = tuple(
            (name, level[name], layout.i2is[d].target_keys)
            for d, name in enumerate(array.dim_names)
            if name in level
        )
        for name in self.route(cube, list(rollup.grain), [], "sum").candidates:
            source = self._store.peek((cube.name, name))
            if (
                name != rollup.name
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
        return Grain(cube.cube, axes, key_terms, state.generation, counts, columns)

    def _on_write(self, physical: str, delta: tuple | None) -> None:
        """The engine's write listener: fold a one-cell write into every
        grain of ``physical`` that was fresh before it and stamp it with
        the new generation.  A grain the fold cannot follow is rebuilt
        here, by the write — finest first, so the coarser re-roll: a
        reader finds after a ``write_cell`` the grains it found before
        it.  A write without a delta leaves its grains behind for the
        next request that needs one to rebuild."""
        if delta is None:
            return
        generation = self.engine.cube_generation(physical)
        for key in self._store.patch(physical, delta, generation):
            self.counters.add("rollup.delta_misses")
            try:
                self.rows_for(*self._declared[key])
            except Exception:  # the write is durable: its grain stays behind
                self.counters.add("rollup.refresh_failures")

    def close(self) -> None:
        """Detach from the engine and from the memory ledger."""
        try:
            self.engine.remove_write_listener(self._on_write)
        except ValueError:  # already detached
            pass
        memory = getattr(self.service, "memory", None)
        if memory is not None:
            memory.unregister_store("rollup_grains")

    # -- residency -------------------------------------------------------------

    def grain_stats(self) -> dict[str, dict]:
        """Per stored grain, keyed ``<cube>/<rollup>``: ``{rows,
        resident_bytes}``; bytes are the columns' ``nbytes``."""
        return {
            "/".join(key): {"rows": len(grain), "resident_bytes": grain.nbytes}
            for key, grain in sorted(self._store.items())
        }

    def resident_rollups(self) -> int:
        """Materialized grains currently stored."""
        return len(self._store)

    def grain_rows(self) -> dict[str, int]:
        """Non-empty cells per stored grain, for the rollup stats payload."""
        return {name: stats["rows"] for name, stats in self.grain_stats().items()}

    def resident_rows(self) -> int:
        """Non-empty cells across every stored grain."""
        return sum(self.grain_rows().values())

    def resident_bytes(self) -> int:
        """Bytes held by every stored grain (the memory ledger's figure)."""
        return self._store.resident_bytes()

    def reclaim_grains(self, target_bytes: int) -> int:
        """Evict coldest-routed first down to ``target_bytes``; bytes freed."""
        return self._store.reclaim(target_bytes)

    # -- answering -----------------------------------------------------------

    def scan(
        self, cube: LogicalCube, rollup: RollupDecl, rows: Grain,
        group_by: list[tuple[str, str]], cuts: list, aggregate: str,
        measure_indexes: list[int],
    ) -> list[tuple]:
        """Re-aggregate a materialized grain (``rows``, as handed out by
        :meth:`rows_for` / :meth:`try_rows`) to the requested shape
        (:meth:`Grain.reroll`).  ``count`` is the counts and ``avg``
        divides Σsum by Σcount in Python numbers, as
        :meth:`ResultAccumulator.rows` does.  Rows come out sorted: axis
        members are sorted and cells row-major.
        """
        axes = [
            (dim, attr, sorted(set(self._attr_map(rows.physical, dim, attr).values())))
            for dim, attr in group_by
        ]
        name = {"avg": "sum", "count": None}.get(aggregate, aggregate)
        counts, columns = rows.reroll(
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
        self.counters.add("rollup.rows_scanned", len(rows))
        self.counters.add("rollup.cells_emitted", len(touched))
        return list(zip(*groups, *measures))
