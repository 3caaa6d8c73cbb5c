"""The unified OLAP engine: one cube, two physical designs, three backends.

:class:`OlapEngine` loads a :class:`~repro.olap.model.CubeSchema` into

- the relational star schema: dimension heap tables + the §4.4 fact
  file, with join bitmap indices and (optionally) fact B-trees, and
- the OLAP Array ADT of §3,

then executes :class:`~repro.olap.query.ConsolidationQuery` objects
through the backends the planner can pick:

========== ==========================================================
``array``     §4.1 consolidation / §4.2 chunk-ordered selection
``starjoin``  §4.3 Starjoin operator (selections via key filters)
``bitmap``    §4.5 bitmap AND + fact-file fetch
``rollup``    a declared grain that covers the query, re-rolled
              (:mod:`repro.olap.grains`; ``auto`` alone picks it)
``auto``      the covering grain, else the §5.6-derived planner rule
========== ==========================================================

Every backend returns the identical sorted row multiset, so any two can
be cross-checked — the integration tests' main oracle.  The paper's
dominated baselines — the per-dimension B-tree (``btree``), the
skipping multi-attribute B-tree (``mbtree``) and the pipelined
left-deep hash-join plan (``leftdeep``) — and §4.2's naive probe
order (``naive``) are not engine routes: the experiment harness runs
them through :meth:`OlapEngine.measured_run`
(:mod:`repro.bench.baselines`), the B-tree ones over the fact B-trees
``load_cube`` builds on request.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from collections.abc import Callable, Iterable

from repro.core.builder import DimensionData, fact_coords, plan_olap_array
from repro.core.olap_array import OLAPArray
from repro.errors import CatalogError, PlanError, QueryError, ReproError
from repro.index.bitmap import factorize
from repro.obs.explain import MISESTIMATE_FACTOR_THRESHOLD, QueryPlan
from repro.obs.tracer import get_tracer
from repro.obs.tracing import current_trace_context
from repro.olap import backends as backend_registry
from repro.olap import planner
from repro.olap.backends import BackendContext, RollupBackend
from repro.olap.grains import GRAIN_AGGREGATES, GrainStore
from repro.olap.model import CubeSchema
from repro.olap.planner import PlannerInputs, choose_backend_explained
from repro.olap.query import ConsolidationQuery
from repro.olap.star_schema import (
    array_name,
    bitmap_index_name,
    btree_index_name,
    dimension_table_name,
    dimension_table_schema,
    fact_table_name,
    fact_table_schema,
    mbtree_index_name,
)
from repro.relational.catalog import Database
from repro.relational.star_join import DimensionJoinSpec
from repro.util.records import fact_columns
from repro.util.stats import Counters, Timer, counter_delta

#: where :meth:`OlapEngine.query`'s shard scans may run (:mod:`repro.shard`)
SHARD_EXECUTORS = ("local", "thread", "process")


@dataclass
class QueryResult:
    """Rows plus the measurements the experiments report."""

    rows: list[tuple]
    backend: str
    elapsed_s: float
    sim_io_s: float
    stats: dict[str, float] = field(default_factory=dict)
    #: ``auto``'s grain route when a declared grain covered the query
    #: (:meth:`GrainChoice.route <repro.olap.grains.GrainChoice.route>`)
    route: dict | None = None
    #: the plan the run built and executed; ``None`` for a harness
    #: baseline and a result-cache hit
    plan: QueryPlan | None = None

    @property
    def cost_s(self) -> float:
        """CPU elapsed + simulated I/O: the harness's figure-of-merit."""
        return self.elapsed_s + self.sim_io_s

    def __len__(self) -> int:
        return len(self.rows)

    def analyzed_plan(self, tracer) -> QueryPlan:
        """:attr:`plan` made analyzed: its nodes bound to the ``query``
        span ``tracer`` recorded for this run, its totals to this run's."""
        self.plan.bind_actuals(
            next((s for s in (r.find("query") for r in tracer.roots) if s), None),
            rows=len(self.rows),
            elapsed_s=self.elapsed_s,
            sim_io_s=self.sim_io_s,
            totals=self.stats,
        )
        return self.plan


class DimensionStats:
    """One cube's dimension tables, resident: the loader's view of each
    dimension (:attr:`dimensions`) and, per ``(dimension, attribute)``
    (the key maps to itself), key → value, value → sorted keys and the
    sorted distinct members.  Built from ``(key, level values...)`` rows
    at :meth:`OlapEngine.load_cube` (the rows it loads) and
    :meth:`OlapEngine.attach_cube` (one scan of each table), the only
    writers of dimension tables, so nothing maintains it.  Plans and
    :meth:`OlapEngine.rebuild_array` read it instead of the tables."""

    def __init__(self, schema: CubeSchema, dimension_rows) -> None:
        #: per cube dimension, in cube order, its keys and level columns
        self.dimensions = [
            DimensionData(
                dim.name,
                [r[0] for r in dimension_rows[dim.name]],
                {
                    level: [r[i + 1] for r in dimension_rows[dim.name]]
                    for i, level in enumerate(dim.level_names)
                },
            )
            for dim in schema.dimensions
        ]
        self._attrs: dict[tuple[str, str], tuple[dict, dict, list]] = {}
        for dim, data in zip(schema.dimensions, self.dimensions):
            for attr, column in ((dim.key, data.keys), *data.attributes.items()):
                values = dict(zip(data.keys, column))
                keys_of: dict = {}
                for key, value in values.items():
                    keys_of.setdefault(value, []).append(key)
                members = sorted(keys_of)
                keys_of = {value: sorted(keys_of[value]) for value in members}
                self._attrs[dim.name, attr] = (values, keys_of, members)

    def values(self, dim: str, attr: str) -> dict:
        """key → ``attr`` value for one dimension."""
        return self._attrs[dim, attr][0]

    def members(self, dim: str, attr: str) -> list:
        """``attr``'s distinct values, sorted."""
        return self._attrs[dim, attr][2]

    def cardinality(self, dim: str, attr: str) -> int:
        """Distinct values of one attribute (of the key: the rows)."""
        return len(self._attrs[dim, attr][2])

    def key_sets(self, selections) -> dict[str, set]:
        """Per selected dimension, the keys passing all its predicates
        (IN-lists and ranges alike)."""
        out: dict[str, set] = {}
        for sel in selections:
            _, keys_of, members = self._attrs[sel.dimension, sel.attribute]
            chosen = (
                [value for value in members if sel.matches(value)]
                if sel.is_range
                else sel.values
            )
            allowed = {key for value in chosen for key in keys_of.get(value, ())}
            out.setdefault(sel.dimension, allowed).intersection_update(allowed)
        return out


@dataclass
class _CubeState:
    schema: CubeSchema
    dim_tables: dict
    #: the dimension tables' planning statistics
    dim_stats: DimensionStats
    fact: object | None = None
    array: OLAPArray | None = None
    bitmap_attrs: set = field(default_factory=set)
    btree_dims: set = field(default_factory=set)
    has_mbtree: bool = False
    layout: str = "star"
    #: bumped on every write; result caches key their entries to it
    generation: int = 0
    #: set when appends outgrew the position-based indices (bitmap /
    #: btree / mbtree); the bitmap backend drops out of availability and
    #: the B-tree baselines refuse to run until a rebuild
    indices_stale: bool = False
    #: the name ``array``'s counters went live under in the registry
    array_source: str | None = None

    def available_backends(self) -> set[str]:
        return backend_registry.available_backends(self)


class OlapEngine:
    """Loads cubes into both physical designs and runs consolidations."""

    def __init__(self, db: Database | None = None, **db_kwargs):
        self.db = db if db is not None else Database(**db_kwargs)
        self._cubes: dict[str, _CubeState] = {}
        self._write_listeners: list[Callable[..., None]] = []
        #: the declared grains the planner's ``rollup`` route reads
        self.grains = GrainStore(self)
        self._explain_counters: Counters | None = None
        self._shard_coordinator = None

    # -- loading ------------------------------------------------------------------

    def load_cube(
        self,
        schema: CubeSchema,
        dimension_rows: dict[str, list[tuple]],
        fact_rows: Iterable[tuple],
        chunk_shape: tuple[int, ...] | None = None,
        codec: str = "chunk-offset",
        backends: tuple[str, ...] = ("array", "relational"),
        bitmap_attrs: str | list[tuple[str, str]] = "all",
        fact_btrees: bool = False,
        fact_mbtree: bool = False,
        relational_layout: str = "star",
    ) -> _CubeState:
        """Load dimension and fact data into the requested designs.

        ``dimension_rows[dim]`` holds ``(key, level values...)`` tuples;
        ``fact_rows`` holds ``(keys..., measures...)`` rows, as tuples or
        array-backed (:func:`~repro.util.records.fact_columns`), and is
        checked whole — a :class:`~repro.errors.ReproError` subclass —
        before anything is created.  With ``backends=("array",)`` or
        ``("relational",)`` only one design is built.
        ``relational_layout="snowflake"`` normalizes each dimension into
        a chain of level tables (§2.2's variant); every relational
        algorithm then joins through the chain transparently.
        """
        if relational_layout not in ("star", "snowflake"):
            raise QueryError(
                f"unknown relational layout {relational_layout!r}"
            )
        if schema.name in self._cubes:
            raise CatalogError(f"cube {schema.name!r} already loaded")
        for dim in schema.dimensions:
            if dim.name not in dimension_rows:
                raise QueryError(f"no rows supplied for dimension {dim.name!r}")
        unknown = set(backends) - {"array", "relational"}
        if unknown:
            raise QueryError(f"unknown backends {sorted(unknown)}")
        # Check, then create: each plan holds one design's checked input
        # and nothing exists yet, so a rejected load leaves nothing behind.
        # A plan is dropped as soon as its design is written.
        columns = fact_columns(fact_rows)
        dim_stats = DimensionStats(schema, dimension_rows)
        dim_data = dim_stats.dimensions
        coords, measures = fact_coords(dim_data, columns)
        plans = []
        if "relational" in backends:
            plans.append(
                self._plan_relational(
                    schema, dim_data, columns, coords, bitmap_attrs,
                    fact_btrees, fact_mbtree,
                )
            )
        if "array" in backends:
            plans.append(
                self._plan_array(
                    schema, dim_data, coords, measures, chunk_shape, codec
                )
            )
        del columns, coords, measures

        with self.db.locks.locked(schema.name, "X", "loader"):
            state = _CubeState(schema, {}, dim_stats, layout=relational_layout)
            for dim in schema.dimensions:
                if relational_layout == "snowflake":
                    from repro.olap.snowflake import build_snowflake_dimension

                    state.dim_tables[dim.name] = build_snowflake_dimension(
                        self.db, schema, dim.name, dimension_rows[dim.name]
                    )
                else:
                    table = self.db.create_heap_table(
                        dimension_table_name(schema, dim.name),
                        dimension_table_schema(dim),
                    )
                    table.insert_many(dimension_rows[dim.name])
                    state.dim_tables[dim.name] = table

            while plans:
                plans.pop(0)(state)
            self._cubes[schema.name] = state
            # The load is one transaction: under a WAL nothing above is
            # durable (or evictable, no-steal) until this commit.
            self.db.commit()
        return state

    def _plan_relational(
        self, schema, dim_data, columns, coords, bitmap_attrs, fact_btrees,
        fact_mbtree=False,
    ) -> Callable[[_CubeState], None]:
        """Check the relational design's input; ``build(state)`` creates it."""
        records = fact_table_schema(schema).codec.pack_columns(columns)
        if bitmap_attrs == "all":
            wanted = [
                (d.name, level)
                for d in schema.dimensions
                for level in d.level_names
            ]
        else:
            wanted = list(bitmap_attrs)
        bitmaps = []
        for dim_name, attr in wanted:
            if attr not in schema.dimension(dim_name).level_names:
                raise QueryError(
                    f"cannot build bitmap on {dim_name}.{attr}: not a level"
                )
            d = schema.dim_no(dim_name)
            # the join by column: fact key -> dimension row -> its label
            labels, codes = factorize(dim_data[d].attributes[attr])
            bitmaps.append((dim_name, attr, labels, codes[coords[d]]))

        def build(state: _CubeState) -> None:
            nonlocal records
            state.fact = self.db.create_fact_table(
                fact_table_name(schema), fact_table_schema(schema)
            )
            state.fact.append_records(records)
            records = None  # the fact file holds them now
            while bitmaps:  # each code column goes once its bitmap is written
                dim_name, attr, labels, codes = bitmaps.pop(0)
                self.db.create_coded_bitmap_index(
                    bitmap_index_name(schema, dim_name, attr),
                    len(state.fact), labels, codes,
                )
                state.bitmap_attrs.add((dim_name, attr))

            if fact_btrees:
                for dim in schema.dimensions:
                    self.db.create_btree_index(
                        btree_index_name(schema, dim.name),
                        fact_table_name(schema),
                        dim.key,
                    )
                    state.btree_dims.add(dim.name)

            if fact_mbtree:
                self.db.create_composite_btree_index(
                    mbtree_index_name(schema),
                    fact_table_name(schema),
                    [d.key for d in schema.dimensions],
                )
                state.has_mbtree = True

        return build

    def _plan_array(
        self, schema, dim_data, coords, measures, chunk_shape, codec,
        name: str | None = None,
    ) -> Callable[[_CubeState], None]:
        """Check the array design's input; ``build(state)`` creates it."""
        if chunk_shape is None:
            chunk_shape = tuple(
                min(len(d.keys), 16) for d in dim_data
            )
        store = plan_olap_array(
            dim_data,
            coords,
            measures,
            chunk_shape,
            codec=codec,
            dtype=schema.measure_dtype,
            measure_names=[m.name for m in schema.measures],
        )

        def build(state: _CubeState) -> None:
            array = store(self.db.fm, name or array_name(schema))
            if state.array is not None:
                array.chunk_cache = state.array.chunk_cache
            self._set_array(state, array)

        return build

    def _set_array(self, state: _CubeState, array: OLAPArray) -> None:
        """Point ``state`` at ``array``; its counters take the registry's
        ``array:<cube>`` source over from the array it replaces."""
        metrics = self.db.metrics
        if state.array_source is not None:
            metrics.unregister(state.array_source)
        state.array = array
        state.array_source = metrics.register(
            f"array:{array_name(state.schema)}", array.counters
        )

    def attach_cube(self, schema: CubeSchema) -> _CubeState:
        """Re-register a cube that already lives in this engine's database.

        Used after :meth:`Database.attach
        <repro.relational.catalog.Database.attach>`: the cube's tables,
        indices and array are discovered by their schema-derived names.
        """
        if schema.name in self._cubes:
            raise CatalogError(f"cube {schema.name!r} already loaded")
        tables = {d.name: self.db.table(dimension_table_name(schema, d.name))
                  for d in schema.dimensions}
        rows = {name: list(table.scan()) for name, table in tables.items()}
        state = _CubeState(schema, tables, DimensionStats(schema, rows))
        fact_name = fact_table_name(schema)
        if fact_name in self.db.table_names():
            state.fact = self.db.table(fact_name)
        if self.db.fm.exists(f"{array_name(schema)}.dir"):
            self._set_array(state, OLAPArray.open(self.db.fm, array_name(schema)))
            state.array.chunk_directory()  # resident for the planner
        for dim in schema.dimensions:
            for attr in dim.level_names:
                try:
                    self.db.bitmap(bitmap_index_name(schema, dim.name, attr))
                except CatalogError:
                    continue
                state.bitmap_attrs.add((dim.name, attr))
            try:
                self.db.btree(btree_index_name(schema, dim.name))
            except CatalogError:
                continue
            state.btree_dims.add(dim.name)
        try:
            self.db.btree(mbtree_index_name(schema))
            state.has_mbtree = True
        except CatalogError:
            pass
        self._cubes[schema.name] = state
        return state

    # -- cube lookups ------------------------------------------------------------------

    def cube(self, name: str) -> _CubeState:
        """Loaded cube state by name."""
        try:
            return self._cubes[name]
        except KeyError:
            raise CatalogError(f"no cube named {name!r} loaded") from None

    def declare_grain(self, cube: str, name: str, grain: dict) -> None:
        """Declare grain ``name`` of a loaded cube: ``{dimension:
        level}`` (a level may be the key), every other dimension
        consolidated away.  From now on ``auto`` answers a query the
        grain covers from it (:mod:`repro.olap.grains`); nothing is
        built until a query or :meth:`GrainStore.rows_for
        <repro.olap.grains.GrainStore.rows_for>` needs it.  Declaring a
        name again with another grain replaces it."""
        self.grains.declare(self.cube(cube).schema, name, dict(grain))

    def _selection_key_sets(self, state, query) -> dict[str, set]:
        """:meth:`DimensionStats.key_sets` read off the dimension tables,
        one scan per predicate: §4.3's key-set step and its billed I/O,
        which the starjoin backend and the harness baselines run."""
        out: dict[str, set] = {}
        for sel in query.selections:
            table = state.dim_tables[sel.dimension]
            key_pos = table.schema.index_of(
                state.schema.dimension(sel.dimension).key
            )
            attr_pos = table.schema.index_of(sel.attribute)
            allowed = {
                row[key_pos] for row in table.scan() if sel.matches(row[attr_pos])
            }
            out.setdefault(sel.dimension, allowed).intersection_update(allowed)
        return out

    def estimate_selectivity(self, query: ConsolidationQuery) -> float:
        """Estimated star-join selectivity S = Π per-dimension fractions."""
        state = self.cube(query.cube)
        stats = state.dim_stats
        selectivity = 1.0
        for dim_name, allowed in stats.key_sets(query.selections).items():
            size = stats.cardinality(dim_name, state.schema.dimension(dim_name).key)
            selectivity *= len(allowed) / size if size else 0.0
        return selectivity

    # -- sharding -----------------------------------------------------------------------

    @property
    def shard_coordinator(self):
        """The lazily created scatter-gather coordinator (see
        :mod:`repro.shard`); one per engine, pools persist across
        queries.  :meth:`query`'s ``shards``/``executor`` keywords are
        the one way a query reaches it."""
        if self._shard_coordinator is None:
            from repro.shard.coordinator import ShardCoordinator

            self._shard_coordinator = ShardCoordinator(self)
        return self._shard_coordinator

    def close_shards(self) -> None:
        """Shut down shard worker pools and scratch volume images."""
        if self._shard_coordinator is not None:
            self._shard_coordinator.close()
            self._shard_coordinator = None

    # -- query execution ------------------------------------------------------------------------

    def query(
        self,
        query: ConsolidationQuery,
        backend: str = "auto",
        mode: str = "auto",
        cold: bool = True,
        shards: int = 1,
        executor: str = "local",
    ) -> QueryResult:
        """Execute a consolidation query.

        ``backend`` is ``"auto"`` (the planner picks, a covering grain
        first) or one of the engine's backends, ``array``, ``starjoin``
        or ``bitmap``; any other name is a :class:`PlanError`.  ``mode``
        predates the one array kernel and accepts only ``"auto"``.
        With ``cold=True`` (the paper's methodology) the buffer pool is
        flushed before the measured run.  ``result.stats`` is what every
        registered counter source moved by while the query was planned
        and ran (the difference of two registry snapshots), a stale
        grain's inline build included; ``result.plan`` is the plan.
        ``shards > 1`` scatters the array consolidation over chunk-range
        shards on the given ``executor`` (see :mod:`repro.shard`); no
        other entry point shards.  The request's trace context is the
        one installed by :func:`~repro.obs.tracing.trace_context`, if
        any.
        """
        if mode != "auto":
            raise QueryError(
                f"unknown mode {mode!r}: the array runs one kernel, so "
                "only 'auto' is accepted"
            )
        if executor not in SHARD_EXECUTORS:
            raise QueryError(
                f"unknown executor {executor!r}; expected one of "
                f"{SHARD_EXECUTORS}"
            )
        if shards < 1:
            raise QueryError(f"shards must be >= 1, got {shards}")
        state = self.cube(query.cube)
        query.validate(state.schema)
        return self.measured_run(
            state, query, backend, None, cold, shards=shards, executor=executor
        )

    def measured_run(
        self,
        state: _CubeState,
        query: ConsolidationQuery,
        backend: str,
        execute: Callable[[BackendContext, ConsolidationQuery], list[tuple]]
        | None = None,
        cold: bool = True,
        shards: int = 1,
        executor: str = "local",
    ) -> QueryResult:
        """Run ``query`` once under the measurement protocol.

        The one copy of what every measured query does: the cold flush
        (or, warm, the disk park), the registry snapshot, the scoped
        ``query`` counter bag, the root ``query`` span, the cube's
        S-lock, the timer, the counter delta, the ``engine.*_seconds``
        histograms and the result stamping.  Inside all of that it plans
        ``query`` for ``backend`` (:meth:`plan`; an inline grain build is
        the ``rollup.build`` child of ``query``) and runs the plan —
        unless the experiment harness passes a baseline's ``execute``
        (:mod:`repro.bench.baselines`), run unplanned as ``backend``.
        ``query`` must already be validated against ``state``'s schema;
        ``shards``/``executor`` are :meth:`query`'s, already checked.
        """
        if cold:
            if state.array is not None:
                state.array.invalidate_caches()
            self.db.cold_cache()
        else:
            self.db.disk.park()
        metrics = self.db.metrics
        before = metrics.snapshot_by_source()
        counters = Counters()
        trace = current_trace_context()
        ctx = BackendContext(
            engine=self,
            state=state,
            counters=counters,
            shards=shards,
            executor=executor,
        )
        plan = route = None
        with metrics.scoped("query", counters):
            with get_tracer().span(
                "query",
                cube=query.cube,
                backend=backend,
                planner_reason="explicit",
                **({"trace_id": trace.trace_id} if trace is not None else {}),
            ) as span:
                with self.db.locks.locked(
                    query.cube, "S", f"query-{id(query)}"
                ):
                    with Timer() as timer:
                        if execute is None:
                            plan, impl, route = self._planned(
                                state, query, backend, build=True
                            )
                            backend, execute = plan.backend, impl.execute
                            span.annotate(
                                backend=backend,
                                planner_reason=plan.planner["reason"],
                            )
                        rows = execute(ctx, query)
            stats = counter_delta(before, metrics.snapshot_by_source())
        metrics.observe("engine.query_seconds", timer.elapsed)
        metrics.observe(f"engine.backend.{backend}_seconds", timer.elapsed)
        return QueryResult(
            rows=rows,
            backend=backend,
            elapsed_s=timer.elapsed,
            sim_io_s=stats.get("sim_io_s", 0.0),
            stats=stats,
            route=route,
            plan=plan,
        )

    # -- planning, EXPLAIN and EXPLAIN ANALYZE ---------------------------------------

    def plan(
        self, query: ConsolidationQuery, backend: str = "auto"
    ) -> QueryPlan:
        """The plan of one evaluation of ``query`` on ``backend``, as
        :meth:`query` builds it inside its measured run: resolution (for
        ``auto`` the smallest covering grain, built now when stale, else
        the §5.6 rule), the availability check and the backend's node
        tree.  Estimates read resident statistics (:class:`DimensionStats`,
        the array's chunk directory): no page but a grain build's."""
        state = self.cube(query.cube)
        query.validate(state.schema)
        return self._planned(state, query, backend, build=True)[0]

    def _planned(
        self,
        state: _CubeState,
        query: ConsolidationQuery,
        backend: str,
        build: bool,
    ) -> tuple[QueryPlan, backend_registry.Backend, dict | None]:
        """:meth:`plan`'s ``(plan, implementation, route)``; a stale
        grain is built only when ``build`` (a plain EXPLAIN builds none),
        and one whose build fails is counted and passed over.  ``route``
        reports the grain choice, ``None`` when no grain covers."""
        # imported here: repro.serve imports this module (cycle guard),
        # matching the function-level import precedent in :meth:`sql`
        from repro.serve.fingerprint import query_fingerprint

        requested = backend
        available = state.available_backends()
        selectivity = self.estimate_selectivity(query)
        planner_reason = "explicit"
        grain = route = None
        if backend == "auto":
            choice = query.aggregate in GRAIN_AGGREGATES and self.grains.choose(
                state.schema,
                query.group_by
                + tuple((s.dimension, s.attribute) for s in query.selections),
            )
            if choice:
                grain = self.grains.fresh(query.cube, choice.name)
                if grain is None and build:
                    try:
                        grain = self.grains.rows_for(state, choice.name)
                    except ReproError:
                        self.grains.counters.add("rollup.refresh_failures")
                route = choice.route(grain)
            backend, planner_reason = choose_backend_explained(
                PlannerInputs(
                    has_array="array" in available,
                    has_bitmaps="bitmap" in available,
                    has_selections=bool(query.selections),
                    estimated_selectivity=selectivity,
                    has_range_selections=any(
                        sel.is_range for sel in query.selections
                    ),
                    has_grain=grain is not None,
                ),
            )
        if grain is not None:
            impl = RollupBackend(choice, grain)
        else:
            impl = backend_registry.get_backend(backend)
            if not impl.available(state):
                raise PlanError(
                    f"backend {backend!r} not available for cube "
                    f"{query.cube!r}; built: {sorted(available)}"
                )
        plan = QueryPlan(
            cube=query.cube,
            backend=backend,
            fingerprint=query_fingerprint(query, requested),
            planner={
                "requested": requested,
                "reason": planner_reason,
                "estimated_selectivity": selectivity,
                "crossover_selectivity": planner.DEFAULT_CROSSOVER_SELECTIVITY,
                "available_backends": sorted(available),
            },
            root=impl.explain(
                BackendContext(engine=self, state=state, counters=Counters()),
                query,
            ),
        )
        return plan, impl, route

    def explain(
        self,
        query: ConsolidationQuery,
        backend: str = "auto",
        analyze: bool = False,
        cold: bool = True,
    ) -> QueryPlan:
        """:meth:`plan` without running it; ``analyze=True`` is
        :meth:`explain_analyze`'s plan.

        Takes the same ``(backend, analyze)`` signature as the other
        explain surfaces (:meth:`QueryService.explain
        <repro.serve.service.QueryService.explain>` and ``repro
        explain``).  A plain EXPLAIN is plan-only: it builds no grain,
        so a stale covering grain shows as its base plan.
        """
        if analyze:
            return self.explain_analyze(query, backend, cold)[0]
        state = self.cube(query.cube)
        query.validate(state.schema)
        return self._planned(state, query, backend, build=False)[0]

    def explain_analyze(
        self,
        query: ConsolidationQuery,
        backend: str = "auto",
        cold: bool = True,
    ) -> tuple[QueryPlan, QueryResult]:
        """EXPLAIN ANALYZE: ``(plan, result)`` of one :meth:`query` run
        under a registry-bound tracer, its own plan bound to the span
        deltas (planning and any grain build included) and every node's
        misestimate factor fed to ``engine.explain.misestimate_factor``.
        The run's span tree goes on to the caller's tracer, if any."""
        from repro.obs.tracer import Tracer, thread_tracing

        outer = get_tracer()
        tracer = Tracer(registry=self.db.metrics)
        with thread_tracing(tracer):
            result = self.query(query, backend, cold=cold)
        for root in tracer.roots:
            outer.attach(root)
        plan = result.analyzed_plan(tracer)
        self._record_misestimates(plan)
        return plan, result

    def _record_misestimates(self, plan) -> None:
        """Feed an analyzed plan's estimate errors into ``/metrics``."""
        counters = self._explain_stats()
        counters.add("explain.analyzed")
        for node in plan.root.walk():
            worst = node.worst_misestimate()
            if worst is None:
                continue
            counters.add("explain.nodes_analyzed")
            self.db.metrics.observe(
                "engine.explain.misestimate_factor", worst
            )
            if worst > MISESTIMATE_FACTOR_THRESHOLD:
                counters.add("explain.misestimates")

    def _explain_stats(self) -> Counters:
        """The ``engine:explain`` counter bag, registered on first use."""
        if self._explain_counters is None:
            self._explain_counters = Counters()
            self.db.metrics.register("engine:explain", self._explain_counters)
        return self._explain_counters

    def sql(self, cube_name: str, statement: str, **query_kwargs) -> QueryResult:
        """Parse a SQL-subset statement against a loaded cube and run it."""
        from repro.olap.sql import parse_query

        query = parse_query(statement, self.cube(cube_name).schema)
        return self.query(query, **query_kwargs)

    # -- backend support helpers (shared with repro.olap.backends) ---------------------

    def _project_measures(self, state, query, rows) -> list[tuple]:
        """The ADT aggregates every measure; keep the asked-for columns."""
        all_measures = [m.name for m in state.schema.measures]
        wanted = self._query_measures(state, query)
        if wanted == all_measures:
            return rows
        n_groups = len(query.group_by)
        keep = [n_groups + all_measures.index(m) for m in wanted]
        return [row[:n_groups] + tuple(row[i] for i in keep) for row in rows]

    def _reorder_array_rows(self, state, query, rows) -> list[tuple]:
        """Array rows come in cube-dimension order; emit query order."""
        cube_order = [
            d.name
            for d in state.schema.dimensions
            if d.name in dict(query.group_by)
        ]
        query_order = list(query.group_dims)
        n_groups = len(cube_order)
        if cube_order == query_order:
            return rows
        permutation = [cube_order.index(d) for d in query_order]
        reordered = [
            tuple(row[p] for p in permutation) + row[n_groups:] for row in rows
        ]
        reordered.sort()
        return reordered

    def _group_specs(self, state, query) -> list[DimensionJoinSpec]:
        schema = state.schema
        specs = []
        for dim_name, attr in query.group_by:
            dim = schema.dimension(dim_name)
            specs.append(
                DimensionJoinSpec(
                    state.dim_tables[dim_name], dim.key, dim.key, attr
                )
            )
        return specs

    def _query_measures(self, state, query) -> list[str]:
        if query.measures is not None:
            return list(query.measures)
        return [m.name for m in state.schema.measures]

    # -- writes (the serving layer's mutation surface) -----------------------------------------

    def cube_generation(self, name: str) -> int:
        """Monotonic write counter for one cube.

        Every mutation through :meth:`write_cell`, :meth:`append_facts`
        or :meth:`rebuild_array` bumps it; result caches key entries to
        the generation they were computed at and treat a mismatch as a
        miss (generation-based invalidation).
        """
        return self.cube(name).generation

    def add_write_listener(self, listener: Callable[..., None]) -> None:
        """Call ``listener(cube_name, delta)`` after every write to any
        cube.  ``delta`` is ``(keys, old, new)`` when the write changed
        exactly one array cell (``old`` is ``None`` for a new cell),
        ``None`` when it changed more or the difference is not known."""
        self._write_listeners.append(listener)

    def remove_write_listener(self, listener: Callable[..., None]) -> None:
        """Detach a previously added write listener."""
        self._write_listeners.remove(listener)

    def _note_write(self, state: _CubeState, delta: tuple | None = None) -> None:
        # Transaction boundary: each engine-level write is one committed
        # unit, so crash recovery restores whole writes or none of them.
        try:
            self.db.commit()
        finally:
            # Only now: a reader beside the commit is served the state
            # before the write from what is cached, not turned away for
            # an fsync.  Even if it failed: nothing cached outlives it.
            state.generation += 1
        if delta is not None:
            self.grains.patch(state, delta)
        for listener in list(self._write_listeners):
            listener(state.schema.name, delta)

    def write_cell(self, cube: str, keys: tuple, measures) -> None:
        """Insert or overwrite one cell in every built physical design.

        The array patches an existing cell's value bytes in place and
        re-encodes the chunk for a new one (:meth:`OLAPArray.write_cell
        <repro.core.olap_array.OLAPArray.write_cell>`); the fact file
        updates the first tuple with the cell's keys in place
        (:meth:`~repro.relational.fact_file.FactFile.find`), or appends
        when the cell is new.  Appends outgrow the position-based
        bitmap/B-tree indices, so a new cell marks them stale (overwrites
        keep them valid: they index keys and attributes, never measures).
        """
        state = self.cube(cube)
        keys = tuple(keys)
        measures = tuple(measures)
        ndim = len(state.schema.dimensions)
        if len(keys) != ndim:
            raise QueryError(f"expected {ndim} dimension keys, got {len(keys)}")
        if len(measures) != len(state.schema.measures):
            raise QueryError(
                f"expected {len(state.schema.measures)} measures, got "
                f"{len(measures)}"
            )
        with self.db.locks.locked(cube, "X", f"write-{id(keys)}"):
            appended = False
            if state.fact is not None:
                found = state.fact.find(keys)
                if found is None:
                    state.fact.append(keys + measures)
                    appended = True
                else:
                    state.fact.update(found, keys + measures)
            delta = None
            if state.array is not None:
                delta = (keys, state.array.write_cell(keys, measures), measures)
            if appended:
                state.indices_stale = True
            self._note_write(state, delta)

    def append_facts(self, cube: str, rows) -> None:
        """Append fact tuples to every built physical design.

        Rows are ``(keys..., measures...)`` as in :meth:`load_cube`.
        A row whose cell already exists folds its measures additively
        into the array cell (the fact file keeps both tuples), each
        touched chunk re-encoded once (:meth:`OLAPArray.add_cells
        <repro.core.olap_array.OLAPArray.add_cells>`), so only
        ``sum`` stays design-agnostic over duplicated cells — append
        distinct cells when cross-backend parity matters.  Appends mark
        the position-based indices stale (see :meth:`write_cell`).
        """
        state = self.cube(cube)
        columns = fact_columns(rows)
        if not columns:
            return
        if state.fact is not None:
            records = state.fact.schema.codec.pack_columns(columns)
        if state.array is not None:
            array = state.array
            coords, measures = fact_coords(
                [
                    DimensionData(name, index.keys())
                    for name, index in zip(array.dim_names, array.dims)
                ],
                columns,
            )
        with self.db.locks.locked(cube, "X", f"append-{id(columns)}"):
            if state.fact is not None:
                state.fact.append_records(records)
                state.indices_stale = True
            if state.array is not None:
                state.array.add_cells(coords, measures)
            self._note_write(state)

    def rebuild_array(
        self,
        cube: str,
        chunk_shape: tuple[int, ...] | None = None,
        codec: str | None = None,
    ) -> OLAPArray:
        """Rebuild the cube's array design from the current fact file.

        An insert whose chunk outgrows its page run moves the chunk and
        leaves the old run dead; a rebuild reclaims that space into a
        fresh, generation-suffixed array and repoints the cube state
        (large-object names are immutable, so the rebuild cannot reuse
        the old name); the dimensions come from :class:`DimensionStats`.
        Counts as a write: the generation bumps and caches invalidate.
        """
        state = self.cube(cube)
        if state.fact is None:
            raise PlanError("rebuild_array needs the cube's fact file")
        old = state.array
        with self.db.locks.locked(cube, "X", f"rebuild-{cube}"):
            if state.layout == "snowflake":
                raise PlanError(
                    "rebuild_array is not supported for snowflake layouts"
                )
            columns = state.fact.schema.codec.unpack_columns(state.fact.records())
            if chunk_shape is None and old is not None:
                chunk_shape = old.geometry.chunk_shape
            if codec is None:
                codec = old.codec_name if old is not None else "chunk-offset"
            name = f"{array_name(state.schema)}.g{state.generation + 1}"
            dim_data = state.dim_stats.dimensions
            self._plan_array(
                state.schema, dim_data, *fact_coords(dim_data, columns),
                chunk_shape, codec, name,
            )(state)
            # indices_stale is NOT cleared: the bitmap/B-tree indices
            # still cover only the originally loaded tuple positions
            self._note_write(state)
        return state.array

    # -- storage reporting ----------------------------------------------------------------------

    def storage_report(self, cube_name: str) -> dict[str, int]:
        """On-disk footprints of every structure built for a cube."""
        state = self.cube(cube_name)
        schema = state.schema
        report: dict[str, int] = {
            "dimension_tables": sum(
                t.size_bytes() for t in state.dim_tables.values()
            )
        }
        if state.fact is not None:
            report["fact_file"] = state.fact.size_bytes()
        if state.array is not None:
            report["array_total"] = state.array.storage_bytes()
            report["array_chunks"] = state.array.storage_bytes(
                include_indices=False
            )
        if state.bitmap_attrs:
            report["bitmap_indices"] = sum(
                self.db.bitmap(
                    bitmap_index_name(schema, d, a)
                ).footprint_bytes()
                for d, a in state.bitmap_attrs
            )
        if state.btree_dims:
            report["btree_indices"] = sum(
                self.db.btree(btree_index_name(schema, d)).size_bytes()
                for d in state.btree_dims
            )
        if state.has_mbtree:
            report["mbtree_index"] = self.db.btree(
                mbtree_index_name(schema)
            ).size_bytes()
        return report
