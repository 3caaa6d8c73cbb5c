"""The rollup router: multi-grain materialized aggregates + routing.

The AppLovin pre-aggregation strategy: maintain a small family of
aggregates materialized at declared grains (built through the same §4
consolidation engine as every other query), route each API request to
the **coarsest covering** aggregate, and fall back to base-cube
consolidation when nothing covers.  A rollup covers a request when

- the aggregate is mergeable over pre-aggregated cells (``sum``,
  ``count``, ``min``, ``max`` — ``count`` re-rolls as a sum of counts;
  ``avg`` is never navigable without carrying sum+count, so it always
  falls back), and
- every dimension the request references (drilldown *or* cut) is
  present in the rollup grain at a finer-or-equal hierarchy level, so
  the requested attribute is a function of the stored one.

Materialized rows are invalidated exactly like the serving layer's
result cache: each entry is keyed to the cube generation it was built
at, and any write bumps the generation.  Refresh is *asynchronous*: a
request that finds its chosen rollup stale (or not yet built) is
answered from the base cube — the same cost it would pay with no
router — while a daemon worker rebuilds the grain, so serving-path
latency never includes a build.  Routing metadata surfaces through
EXPLAIN as a
``rollup.route`` plan node (chosen grain vs. base, candidate set, exact
row estimates) whose ANALYZE actuals bind to the scan's registry
counter deltas, like every engine plan node.
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass

from repro.api.model import LogicalCube, RollupDecl
from repro.errors import ApiRequestError
from repro.obs.memory import deep_sizeof
from repro.obs.tracing import (
    TraceContext,
    add_trace_link,
    current_trace_context,
    new_trace_context,
    trace_context,
)
from repro.olap.query import ConsolidationQuery
from repro.util.stats import Counters

#: aggregates whose pre-aggregated cells merge exactly (``count`` cells
#: merge additively; ``avg`` would need a (sum, count) sketch)
NAVIGABLE_AGGREGATES = frozenset({"sum", "count", "min", "max"})

_MERGE = {
    "sum": lambda a, b: a + b,
    "count": lambda a, b: a + b,
    "min": min,
    "max": max,
}


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

    Thread-safe: the store lock only guards the dict, never a build —
    concurrent rebuilds of the same grain are harmless (last write
    wins, both are correct for their sampled generation).
    """

    def __init__(self, engine, service, registry=None):
        self.engine = engine
        self.service = service
        self._registry = registry
        self._grain_gauges: set[tuple] = set()
        self.counters = Counters()
        self._lock = threading.Lock()
        #: (logical cube, rollup name, aggregate) -> (generation, rows)
        self._store: dict[tuple, tuple[int, list]] = {}
        #: measured bytes per stored entry (parallel to ``_store``)
        self._bytes: dict[tuple, int] = {}
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
        #: in-flight (cube, rollup, aggregate) -> the build's trace_id,
        #: so a deduplicated schedule still links to the running build
        self._inflight: dict[tuple, str] = {}
        self._worker: threading.Thread | None = None
        if registry is not None:
            registry.register("api:rollup", self.counters, replace=True)
            registry.register_gauge(
                "rollup.resident_rows",
                lambda: float(self.resident_rows()),
                replace=True,
            )
            registry.register_gauge(
                "rollup.resident_bytes",
                lambda: float(self.resident_bytes()),
                replace=True,
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
        self,
        cube: LogicalCube,
        rollup: RollupDecl,
        referenced: dict[str, int],
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
            if grain_attr != dim.hierarchy[needed_index]:
                # requested level must be derivable from the stored one
                derived = self.derive_map(
                    cube.cube, dim_name, grain_attr,
                    dim.hierarchy[needed_index],
                )
                if derived is None:
                    return False
        return True

    def route(
        self,
        cube: LogicalCube,
        group_by: list[tuple[str, str]],
        cuts: list,
        aggregate: str,
    ) -> RouteDecision:
        """Pick the smallest covering rollup, or fall back to base.

        ``cuts`` items carry ``dimension`` and ``attribute`` fields
        (see :class:`repro.api.server.Cut`).
        """
        referenced: dict[str, int] = {}
        for dim_name, attr in list(group_by) + [
            (c.dimension, c.attribute) for c in cuts
        ]:
            index = cube.dimension(dim_name).level_index(attr)
            previous = referenced.get(dim_name, index)
            referenced[dim_name] = min(previous, index)
        if aggregate not in NAVIGABLE_AGGREGATES:
            return RouteDecision(
                source="base",
                rollup=None,
                reason=f"aggregate {aggregate!r} is not navigable",
                candidates=(),
            )
        covering = [
            r for r in cube.rollups if self._covers(cube, r, referenced)
        ]
        if not covering:
            return RouteDecision(
                source="base",
                rollup=None,
                reason="no declared rollup covers the request",
                candidates=(),
            )
        sized = sorted(
            (self.estimated_rows(cube, r), r.name, r) for r in covering
        )
        rows, _, chosen = sized[0]
        return RouteDecision(
            source="rollup",
            rollup=chosen,
            reason=(
                f"rollup {chosen.name!r} is the smallest of "
                f"{len(covering)} covering grain(s)"
            ),
            candidates=tuple(name for _, name, _ in sized),
            estimated_rows=rows,
        )

    # -- materialization -----------------------------------------------------

    def rollup_query(
        self, cube: LogicalCube, rollup: RollupDecl, aggregate: str
    ) -> ConsolidationQuery:
        """The base-cube consolidation that materializes one grain."""
        return ConsolidationQuery.build(
            cube.cube,
            group_by=dict(rollup.grain),
            aggregate=aggregate,
        )

    def rows_for(
        self, cube: LogicalCube, rollup: RollupDecl, aggregate: str
    ) -> list:
        """The materialized rows of one (grain, aggregate), rebuilt
        *synchronously* when the cube generation has moved (the EXPLAIN
        path and the refresh worker use this; the serving path goes
        through :meth:`try_rows` so a request never waits on a build)."""
        generation = self.engine.cube_generation(cube.cube)
        key = (cube.name, rollup.name, aggregate)
        with self._lock:
            entry = self._store.get(key)
            if entry is not None and entry[0] == generation:
                self._last_hit[key] = time.monotonic()
                return entry[1]
        # build outside the lock: it is a real (serialized) engine query
        # run under the service's configured ExecutionOptions defaults
        result = self.service.execute(self.rollup_query(cube, rollup, aggregate))
        rows = list(result.rows)
        self.counters.add("rollup.rebuilds")
        nbytes = deep_sizeof(rows)
        # a write racing the build would bump the generation; storing the
        # pre-build sample is conservative (next request rebuilds again)
        with self._lock:
            self._store[key] = (generation, rows)
            self._bytes[key] = nbytes
            self._last_hit[key] = time.monotonic()
        self._register_grain_gauge(key)
        # outside the lock: the pressure hook may call right back into
        # reclaim_grains(), which takes it
        if self.pressure_callback is not None:
            self.pressure_callback()
        return rows

    def _register_grain_gauge(self, key: tuple) -> None:
        """Per-grain resident-row gauge, registered on first build."""
        if self._registry is None or key in self._grain_gauges:
            return

        def sample(k: tuple = key) -> float:
            with self._lock:
                entry = self._store.get(k)
            return float(len(entry[1])) if entry is not None else 0.0

        self._registry.register_gauge(
            "rollup.rows." + ".".join(key), sample, replace=True
        )
        self._grain_gauges.add(key)

    def try_rows(
        self, cube: LogicalCube, rollup: RollupDecl, aggregate: str
    ) -> list | None:
        """Fresh materialized rows, or ``None`` with a background
        refresh scheduled.

        The serving-path contract: a request must never pay a rollup
        build inline.  Stale or missing entries hand the request back
        to base-cube consolidation (same cost the request would pay
        with no router at all) while the refresh worker rebuilds; the
        next request at this grain scans the fresh rows.
        """
        generation = self.engine.cube_generation(cube.cube)
        key = (cube.name, rollup.name, aggregate)
        with self._lock:
            entry = self._store.get(key)
            if entry is not None and entry[0] == generation:
                self._last_hit[key] = time.monotonic()
                return entry[1]
        if entry is not None:
            self.counters.add("rollup.stale")
        self.schedule_refresh(cube, rollup, aggregate)
        return None

    def schedule_refresh(
        self, cube: LogicalCube, rollup: RollupDecl, aggregate: str
    ) -> str:
        """Queue one (grain, aggregate) rebuild, deduplicating in-flight
        work; starts the daemon refresh worker on first use.

        The build's :class:`TraceContext` is minted *here*, at schedule
        time, so the scheduling request can record which background
        build it caused before the build has run a single instruction:
        a ``schedules`` link is attached to the caller's active trace,
        and the build later records the reverse ``follows_from`` link.
        A deduplicated schedule links to the already-running build
        instead of minting a second identity.  Returns the build's
        trace_id.
        """
        key = (cube.name, rollup.name, aggregate)
        refresh_ctx = new_trace_context(origin="rollup-refresh")
        with self._lock:
            existing = self._inflight.get(key)
            if existing is None:
                self._inflight[key] = refresh_ctx.trace_id
                if self._worker is None:
                    self._worker = threading.Thread(
                        target=self._refresh_loop,
                        name="rollup-refresh",
                        daemon=True,
                    )
                    self._worker.start()
        trace_id = existing if existing is not None else refresh_ctx.trace_id
        detail = f"rollup {cube.name}/{rollup.name}/{aggregate}"
        add_trace_link("schedules", trace_id, detail=detail)
        if existing is not None:
            return existing
        scheduler = current_trace_context()
        self.counters.add("rollup.refreshes_scheduled")
        self._refresh_queue.put(
            (
                cube,
                rollup,
                aggregate,
                refresh_ctx,
                scheduler.trace_id if scheduler is not None else None,
            )
        )
        return refresh_ctx.trace_id

    def _refresh_loop(self) -> None:
        while True:
            item = self._refresh_queue.get()
            if item is None:
                return
            cube, rollup, aggregate, refresh_ctx, scheduler_trace_id = item
            key = (cube.name, rollup.name, aggregate)
            status = "ok"
            start = time.perf_counter()
            try:
                # the build runs under its own trace identity: the
                # service query it issues reads the thread-local and
                # joins this trace, not the request that scheduled it
                with trace_context(refresh_ctx):
                    self.rows_for(cube, rollup, aggregate)
            except Exception as exc:
                # a degraded cube or admission pressure fails the
                # refresh, not the requests it was serving; the next
                # stale hit reschedules
                status = type(exc).__name__
                self.counters.add("rollup.refresh_failures")
            finally:
                self._record_refresh(
                    refresh_ctx,
                    scheduler_trace_id,
                    cube,
                    rollup,
                    aggregate,
                    status,
                    time.perf_counter() - start,
                )
                with self._lock:
                    self._inflight.pop(key, None)

    def _record_refresh(
        self,
        refresh_ctx: TraceContext,
        scheduler_trace_id: str | None,
        cube: LogicalCube,
        rollup: RollupDecl,
        aggregate: str,
        status: str,
        latency_s: float,
    ) -> None:
        """Record the finished build's trace, linked back to its cause."""
        store = getattr(self.service, "traces", None)
        if store is None:
            return
        detail = f"rollup {cube.name}/{rollup.name}/{aggregate}"
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
            name=f"rollup-refresh:{cube.name}/{rollup.name}/{aggregate}",
            origin="rollup-refresh",
            status=status,
            latency_s=latency_s,
            links=links,
            attrs={
                "cube": cube.name,
                "rollup": rollup.name,
                "aggregate": aggregate,
            },
            force=True,  # causally linked builds are always kept
        )
        if scheduler_trace_id is not None:
            # belt and braces: if the scheduling request's record is
            # already resident, attach the forward link there too (its
            # own add_trace_link only lands if its layer records links)
            store.link(
                scheduler_trace_id,
                {
                    "kind": "schedules",
                    "trace_id": refresh_ctx.trace_id,
                    "detail": detail,
                },
            )

    def close(self) -> None:
        """Stop the refresh worker (if it ever started)."""
        with self._lock:
            worker = self._worker
            self._worker = None
        if worker is not None:
            self._refresh_queue.put(None)
            worker.join(timeout=5)

    def resident_rollups(self) -> int:
        """Materialized (grain, aggregate) entries currently stored."""
        with self._lock:
            return len(self._store)

    def resident_rows(self) -> int:
        """Total materialized rows held across every stored grain (the
        ``rollup.resident_rows`` gauge: the router's memory footprint
        in cells, not entries)."""
        with self._lock:
            return sum(len(rows) for _, rows in self._store.values())

    def grain_rows(self) -> dict[str, int]:
        """Materialized row count per stored entry, keyed
        ``<cube>/<rollup>/<aggregate>``, for the rollup stats payload."""
        with self._lock:
            return {
                "/".join(key): len(rows)
                for key, (_, rows) in sorted(self._store.items())
            }

    # -- memory accounting ---------------------------------------------------

    def resident_bytes(self) -> int:
        """Measured bytes across every stored grain (O(entries))."""
        with self._lock:
            return sum(self._bytes.values())

    def grain_stats(self) -> dict[str, dict]:
        """Per-entry ``{rows, resident_bytes, last_hit_age_s}``, keyed
        ``<cube>/<rollup>/<aggregate>`` — the ``/rollups`` breakdown."""
        now = time.monotonic()
        with self._lock:
            return {
                "/".join(key): {
                    "rows": len(rows),
                    "resident_bytes": self._bytes.get(key, 0),
                    "last_hit_age_s": (
                        round(now - self._last_hit[key], 3)
                        if key in self._last_hit
                        else None
                    ),
                }
                for key, (_, rows) in sorted(self._store.items())
            }

    def top_entries(self, n: int = 10) -> list[dict]:
        """The ``n`` largest grains as ``{"key", "bytes"}`` dicts."""
        with self._lock:
            sized = sorted(
                self._bytes.items(), key=lambda item: item[1], reverse=True
            )
        return [
            {"key": "/".join(key), "bytes": nbytes}
            for key, nbytes in sized[:n]
        ]

    def reclaim_grains(self, target_bytes: int) -> int:
        """Evict coldest-first (by routed-hit recency) until at most
        ``target_bytes`` remain; returns bytes freed.

        An evicted grain is indistinguishable from a never-built one:
        the next request routed to it falls back to base-cube
        consolidation and schedules an async rebuild — exactly the
        stale path, so serving correctness is untouched.
        """
        freed = 0
        with self._lock:
            coldest = sorted(
                self._store, key=lambda key: self._last_hit.get(key, 0.0)
            )
            for key in coldest:
                if sum(self._bytes.values()) <= target_bytes:
                    break
                del self._store[key]
                freed += self._bytes.pop(key, 0)
                self._last_hit.pop(key, None)
                self.counters.add("rollup.evictions")
        return freed

    # -- answering -----------------------------------------------------------

    def scan(
        self,
        cube: LogicalCube,
        rollup: RollupDecl,
        rows: list,
        group_by: list[tuple[str, str]],
        cuts: list,
        aggregate: str,
        measure_indexes: list[int],
    ) -> list[tuple]:
        """Re-aggregate materialized rows to the requested shape.

        Each stored row is ``(grain values..., measure values...)`` in
        grain order; requested attributes derive from stored ones via
        the verified hierarchy maps, cuts filter on derived values, and
        measures merge with the aggregate's exact merge function.
        """
        merge = _MERGE[aggregate]
        grain = rollup.grain
        grain_pos = {dim: i for i, (dim, _) in enumerate(grain)}
        grain_attr = dict(grain)
        n_grain = len(grain)

        def deriver(dim: str, attr: str):
            stored = grain_attr[dim]
            pos = grain_pos[dim]
            if stored == attr:
                return lambda row: row[pos]
            mapping = self.derive_map(cube.cube, dim, stored, attr)
            if mapping is None:  # pragma: no cover — routing verified it
                raise ApiRequestError(
                    f"{attr!r} is not derivable from rollup grain "
                    f"{stored!r} on dimension {dim!r}"
                )
            return lambda row: mapping[row[pos]]

        group_fns = [deriver(dim, attr) for dim, attr in group_by]
        cut_fns = [(deriver(c.dimension, c.attribute), c) for c in cuts]

        cells: dict[tuple, list] = {}
        scanned = 0
        for row in rows:
            scanned += 1
            if any(not cut.matches(fn(row)) for fn, cut in cut_fns):
                continue
            key = tuple(fn(row) for fn in group_fns)
            measures = [row[n_grain + m] for m in measure_indexes]
            cell = cells.get(key)
            if cell is None:
                cells[key] = measures
            else:
                for i, value in enumerate(measures):
                    cell[i] = merge(cell[i], value)
        self.counters.add("rollup.rows_scanned", scanned)
        self.counters.add("rollup.cells_emitted", len(cells))
        return sorted(key + tuple(values) for key, values in cells.items())

    def answer(
        self,
        cube: LogicalCube,
        decision: RouteDecision,
        group_by: list[tuple[str, str]],
        cuts: list,
        aggregate: str,
        measure_indexes: list[int],
    ) -> tuple[list[tuple], int, float]:
        """Serve one routed request: ``(rows, rows_scanned, elapsed_s)``."""
        rollup = decision.rollup
        assert rollup is not None
        start = time.perf_counter()
        stored = self.rows_for(cube, rollup, aggregate)
        rows = self.scan(
            cube, rollup, stored, group_by, cuts, aggregate, measure_indexes
        )
        self.counters.add("rollup.hits")
        return rows, len(stored), time.perf_counter() - start
