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
appends, an array rebuild, recovery, an evicted grain, an overwrite off
a min or max the cell may have tied — leaves the grain behind the cube
generation: a request that finds it so is answered from the base cube
(what it would cost with no router) while a daemon worker rebuilds the
grain, so serving-path latency never includes a build.  Routing surfaces
through EXPLAIN as a ``rollup.route`` plan node whose ANALYZE actuals
bind to registry counter deltas, like every engine plan node.
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass

import numpy as np

from repro.api.grain import FOLDS, Grain, walk_columns
from repro.api.model import LogicalCube, RollupDecl
from repro.core.consolidate import ConsolidationSpec, ResultAccumulator
from repro.errors import PlanError, ReproError
from repro.obs.tracing import (
    TraceContext,
    add_trace_link,
    current_trace_context,
    new_trace_context,
    trace_context,
)
from repro.util.stats import Counters


@dataclass(frozen=True)
class RouteDecision:
    """Where one aggregate request will be answered."""

    source: str  # "rollup" or "base"
    rollup: RollupDecl | None
    reason: str
    candidates: tuple[str, ...]
    estimated_rows: int | None = None


class RollupRouter:
    """Routes aggregate requests onto materialized multi-grain rollups.

    Thread-safe: the store lock only guards the dicts, never a build.
    Builds and the write listener both run under the service's engine
    lock, so a grain is built from, and patched against, one generation.
    """

    def __init__(self, engine, service, registry=None):
        self.engine = engine
        self.service = service
        self._registry = registry
        self.counters = Counters()
        self._lock = threading.Lock()
        #: (logical cube, rollup name) -> the grain's latest generation
        self._store: dict[tuple, Grain] = {}
        self._declared: dict[tuple, tuple[LogicalCube, RollupDecl]] = {}
        #: monotonic time of each grain's last routed hit — the
        #: "coldest grain" ordering for pressure eviction
        self._last_hit: dict[tuple, float] = {}
        #: called after a build grew the store; the memory accountant
        #: installs its budget check here
        self.pressure_callback = None
        #: (physical cube, dim, from_attr, to_attr) -> value map or None
        self._maps: dict[tuple, dict | None] = {}
        #: (physical cube, dim, attr) -> distinct value count
        self._cardinalities: dict[tuple, int] = {}
        #: async refresh machinery (lazy: no thread until first schedule)
        self._refresh_queue: queue.Queue = queue.Queue()
        #: in-flight (cube, rollup) -> the build's trace_id, so a
        #: deduplicated schedule still links to the running build
        self._inflight: dict[tuple, str] = {}
        self._worker: threading.Thread | None = None
        engine.add_write_listener(self._on_write)
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
        not loaded or is degraded is left to the first request's refresh."""
        try:
            for rollup in sorted(
                cube.rollups, key=lambda r: -self.estimated_rows(cube, r)
            ):
                self.rows_for(cube, rollup)
        except ReproError:
            self.counters.add("rollup.refresh_failures")

    def _fresh(self, cube: LogicalCube, rollup: RollupDecl) -> Grain | None:
        """The stored grain, if it is at the cube's generation."""
        generation = self.engine.cube_generation(cube.cube)
        key = (cube.name, rollup.name)
        with self._lock:
            grain = self._store.get(key)
            if grain is None or grain.generation != generation:
                return None
            self._last_hit[key] = time.monotonic()
        return grain

    def rows_for(self, cube: LogicalCube, rollup: RollupDecl, aggregate=None) -> Grain:
        """The materialized grain, rebuilt *synchronously* when it is
        behind the cube generation (start-up, the EXPLAIN path and the
        refresh worker use this; the serving path goes through
        :meth:`try_rows` so a request never waits on a build).  Every
        aggregate rides in a grain, whichever one the caller names."""
        grain = self._fresh(cube, rollup)
        if grain is not None:
            return grain
        key = (cube.name, rollup.name)
        with self.service.engine_access(cube.cube) as state:
            # under the engine lock no write can move the generation; a
            # write that held it may have patched the grain fresh
            grain = self._fresh(cube, rollup)
            if grain is not None:
                return grain
            grain = self._build(cube, rollup, state)
            self.counters.add("rollup.rebuilds")
            with self._lock:
                self._store[key] = grain
                self._declared[key] = (cube, rollup)
                self._last_hit[key] = time.monotonic()
        if self._registry is not None:
            name = "/".join(key)
            self._registry.register_gauge(
                "rollup.rows." + ".".join(key),
                lambda: float(self.grain_rows().get(name, 0)),
                replace=True,
            )
        # outside the store lock: the hook calls back into reclaim_grains()
        if self.pressure_callback is not None:
            self.pressure_callback()
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
        with self._lock:
            stored = dict(self._store)
        for name in self.route(cube, list(rollup.grain), [], "sum").candidates:
            source = stored.get((cube.name, name))
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
        the new generation.  A grain the fold cannot follow
        (:meth:`Grain.folded`) is rebuilt here, by the write — finest
        first, so the coarser re-roll: a reader finds after a
        ``write_cell`` the grains it found before it.  A write without a
        delta leaves its grains behind: the stale path."""
        if delta is None:
            return
        generation = self.engine.cube_generation(physical)
        missed = []
        with self._lock:
            for key, grain in list(self._store.items()):
                if (grain.physical, grain.generation) != (physical, generation - 1):
                    continue
                patched = grain.folded(*delta, generation)
                if patched is None:
                    missed.append((-len(grain.counts), key))
                else:
                    self._store[key] = patched
                    self.counters.add("rollup.deltas")
        for _, key in sorted(missed):
            self.counters.add("rollup.delta_misses")
            try:
                self.rows_for(*self._declared[key])
            except Exception:  # the write is durable: its grain stays behind
                self.counters.add("rollup.refresh_failures")

    def try_rows(
        self, cube: LogicalCube, rollup: RollupDecl, aggregate: str
    ) -> Grain | None:
        """The fresh materialized grain, or ``None`` with a background
        refresh scheduled: a request must never pay a rollup build
        inline.  A grain that is behind or missing hands the request
        back to base-cube consolidation while the refresh worker
        rebuilds; the next request at this grain scans the fresh one."""
        grain = self._fresh(cube, rollup)
        if grain is None:
            self.counters.add("rollup.stale")
            self.schedule_refresh(cube, rollup, aggregate)
        return grain

    def schedule_refresh(
        self, cube: LogicalCube, rollup: RollupDecl, aggregate: str | None = None
    ) -> str:
        """Queue one grain rebuild, deduplicating in-flight work; starts
        the daemon refresh worker on first use.  Returns the build's
        trace_id.

        The build's :class:`TraceContext` is minted *here*, at schedule
        time, so the scheduling request can record which background
        build it caused before it has run: a ``schedules`` link goes on
        the caller's active trace, the build later records the reverse
        ``follows_from``.  A deduplicated schedule links to the running
        build; no second identity is minted.
        """
        key = (cube.name, rollup.name)
        refresh_ctx = None
        with self._lock:
            trace_id = self._inflight.get(key)
            if trace_id is None:
                refresh_ctx = new_trace_context(origin="rollup-refresh")
                trace_id = self._inflight[key] = refresh_ctx.trace_id
                if self._worker is None:
                    self._worker = threading.Thread(
                        target=self._refresh_loop, name="rollup-refresh", daemon=True
                    )
                    self._worker.start()
        add_trace_link("schedules", trace_id, detail="rollup " + "/".join(key))
        if refresh_ctx is not None:
            scheduler = current_trace_context()
            self.counters.add("rollup.refreshes_scheduled")
            self._refresh_queue.put(
                (cube, rollup, refresh_ctx, scheduler and scheduler.trace_id)
            )
        return trace_id

    def _refresh_loop(self) -> None:
        while True:
            item = self._refresh_queue.get()
            if item is None:
                return
            cube, rollup, refresh_ctx, scheduler_trace_id = item
            key = (cube.name, rollup.name)
            status = "ok"
            start = time.perf_counter()
            try:
                # the build runs under its own trace identity, not the
                # one of the request that scheduled it
                with trace_context(refresh_ctx):
                    self.rows_for(cube, rollup)
            except Exception as exc:
                # a degraded cube or an I/O fault fails the refresh, not
                # the requests it was serving; the next stale hit
                # reschedules
                status = type(exc).__name__
                self.counters.add("rollup.refresh_failures")
            finally:
                self._record_refresh(
                    refresh_ctx, scheduler_trace_id, key, status,
                    time.perf_counter() - start,
                )
                with self._lock:
                    self._inflight.pop(key, None)

    def _record_refresh(
        self, refresh_ctx: TraceContext, scheduler_trace_id: str | None,
        key: tuple[str, str], status: str, latency_s: float,
    ) -> None:
        """Record the finished build's trace, linked back to its cause."""
        store = getattr(self.service, "traces", None)
        if store is None:
            return
        links = []
        if scheduler_trace_id is not None:
            links.append(
                {
                    "kind": "follows_from",
                    "trace_id": scheduler_trace_id,
                    "detail": "stale-grain fallback scheduled this build",
                }
            )
        store.record(
            refresh_ctx,
            name="rollup-refresh:" + "/".join(key),
            origin="rollup-refresh",
            status=status,
            latency_s=latency_s,
            links=links,
            attrs={"cube": key[0], "rollup": key[1]},
        )

    def close(self) -> None:
        """Detach from the engine; stop the refresh worker if it started."""
        try:
            self.engine.remove_write_listener(self._on_write)
        except ValueError:  # already detached
            pass
        with self._lock:
            worker = self._worker
            self._worker = None
        if worker is not None:
            self._refresh_queue.put(None)
            worker.join(timeout=5)

    # -- residency and memory accounting ---------------------------------------

    def grain_stats(self) -> dict[str, dict]:
        """Per stored grain, keyed ``<cube>/<rollup>``: ``{rows,
        resident_bytes, last_hit_age_s}``; bytes are the columns' ``nbytes``."""
        now = time.monotonic()
        with self._lock:
            stored = [
                (key, grain, self._last_hit.get(key))
                for key, grain in sorted(self._store.items())
            ]
        return {
            "/".join(key): {
                "rows": len(grain),
                "resident_bytes": grain.nbytes,
                "last_hit_age_s": None if hit is None else round(now - hit, 3),
            }
            for key, grain, hit in stored
        }

    def resident_rollups(self) -> int:
        """Materialized grains currently stored."""
        return len(self.grain_stats())

    def grain_rows(self) -> dict[str, int]:
        """Non-empty cells per stored grain, for the rollup stats payload."""
        return {name: stats["rows"] for name, stats in self.grain_stats().items()}

    def resident_rows(self) -> int:
        """Non-empty cells across every stored grain."""
        return sum(self.grain_rows().values())

    def resident_bytes(self) -> int:
        """Bytes held by every stored grain (the memory ledger's figure)."""
        return sum(s["resident_bytes"] for s in self.grain_stats().values())

    def top_entries(self, n: int = 10) -> list[dict]:
        """The ``n`` largest grains as ``{"key", "bytes"}`` dicts."""
        sized = [
            {"key": name, "bytes": stats["resident_bytes"]}
            for name, stats in self.grain_stats().items()
        ]
        return sorted(sized, key=lambda entry: entry["bytes"], reverse=True)[:n]

    def reclaim_grains(self, target_bytes: int) -> int:
        """Evict coldest-first (by routed-hit recency) until at most
        ``target_bytes`` remain; returns bytes freed.  An evicted grain
        is a never-built one: the next request routed to it falls back
        to base and schedules an async rebuild — the stale path.
        """
        freed = 0
        with self._lock:
            resident = sum(grain.nbytes for grain in self._store.values())
            for key in sorted(
                self._store, key=lambda key: self._last_hit.get(key, 0.0)
            ):
                if resident - freed <= target_bytes:
                    break
                freed += self._store.pop(key).nbytes
                self._last_hit.pop(key, None)
                self.counters.add("rollup.evictions")
        return freed

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
