"""The rollup router: the API's view, by logical name, of the engine's grains.

The AppLovin pre-aggregation strategy — a small family of aggregates
materialized at declared grains, each request answered from the
smallest covering one, base-cube consolidation when none covers — is
the engine's own ``rollup`` route (:mod:`repro.olap.grains`): a request
is a :class:`~repro.serve.service.QueryService` query like any other,
and SQL or any service caller reaches the same grains.  What is left
here is the model's side of it.  :class:`RollupRouter` declares each
logical cube's rollups on its physical cube at start, finest first, and
builds them, so each coarser one re-rolls from a resident one; its
other methods read the engine's one grain store under the model's
names: the covering rule's decision (:meth:`RollupRouter.route`),
freshness, an inline build under the service's engine lock, a re-roll,
eviction and residency.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.api.model import LogicalCube, LogicalModel, RollupDecl
from repro.errors import ReproError
from repro.olap.grains import Grain


@dataclass(frozen=True)
class RouteDecision:
    """Where one aggregate request will be answered."""

    source: str  # "rollup" or "base"
    rollup: RollupDecl | None
    reason: str
    candidates: tuple[str, ...]
    estimated_rows: int | None = None


class RollupRouter:
    """The model's rollups over the engine's grains (see the module)."""

    def __init__(self, engine, service, model: LogicalModel):
        self.engine = engine
        self.service = service
        self.model = model
        #: the engine's grain store counters (``rollup.rebuilds``, …)
        self.counters = engine.grains.counters
        for cube in model.cubes:
            try:
                finest_first = sorted(
                    cube.rollups,
                    key=lambda r: -engine.grains.estimated_rows(cube.cube, r.grain),
                )
                for rollup in finest_first:
                    engine.declare_grain(cube.cube, rollup.name, rollup.grain_dict())
                for rollup in finest_first:
                    self.rows_for(cube, rollup)
            except ReproError:  # not loaded or degraded: its first query
                self.counters.add("rollup.refresh_failures")

    def route(
        self, cube: LogicalCube, group_by: list[tuple[str, str]], cuts: list,
        aggregate: str,
    ) -> RouteDecision:
        """The engine's covering rule for one request: the smallest
        covering grain, or base.  ``cuts`` are the query's
        :class:`~repro.olap.query.SelectionPredicate` objects;
        ``aggregate`` does not narrow the choice among the API's."""
        state = self.engine.cube(cube.cube)
        choice = self.engine.grains.choose(
            state.schema, list(group_by) + [(c.dimension, c.attribute) for c in cuts]
        )
        if choice is None:
            return RouteDecision(
                "base", None, "no declared rollup covers the request", ()
            )
        rollup = next(
            (r for r in cube.rollups if r.name == choice.name),
            RollupDecl(choice.name, choice.grain),
        )
        return RouteDecision(
            "rollup", rollup, choice.reason, choice.candidates, choice.estimated_rows
        )

    def try_rows(
        self, cube: LogicalCube, rollup: RollupDecl, aggregate: str | None = None
    ) -> Grain | None:
        """The stored grain if it is at the cube's generation, else
        ``None``; nothing is built.  Every aggregate rides in a grain,
        whichever one the caller names."""
        return self.engine.grains.fresh(cube.cube, rollup.name)

    def rows_for(self, cube: LogicalCube, rollup: RollupDecl, aggregate=None) -> Grain:
        """The grain, declared if it is not yet and built now under the
        service's engine lock when it is behind the cube generation.
        Raises what the build raises (a degraded cube, an I/O fault)."""
        with self.service.engine_access(cube.cube) as state:
            grains = self.engine.grains
            if rollup.name not in grains.declared.get(cube.cube, {}):
                self.engine.declare_grain(cube.cube, rollup.name, rollup.grain_dict())
            return grains.rows_for(state, rollup.name)

    def scan(
        self, cube: LogicalCube, rollup: RollupDecl, rows: Grain,
        group_by: list[tuple[str, str]], cuts: list, aggregate: str,
        measure_indexes: list[int],
    ) -> list[tuple]:
        """Re-aggregate a grain (``rows``, as :meth:`rows_for` /
        :meth:`try_rows` hand it out) to the requested shape, as the
        ``rollup`` route does (:meth:`GrainStore.answer
        <repro.olap.grains.GrainStore.answer>`); rows come out sorted."""
        return self.engine.grains.answer(
            rows, group_by, cuts, aggregate, measure_indexes
        )

    def reclaim_grains(self, target_bytes: int) -> int:
        """Evict coldest-routed grains first down to ``target_bytes``;
        bytes freed.  The service's answers from a grain go with them,
        as under memory pressure the result cache goes first: the next
        request routed to an evicted grain rebuilds it."""
        freed = self.engine.grains.reclaim(target_bytes)
        results = self.service.results
        results.drop_where(lambda key: results.peek(key).value.backend == "rollup")
        return freed

    def grain_stats(self) -> dict[str, dict]:
        """Per stored grain of the model, keyed ``<cube>/<rollup>``:
        ``{rows, resident_bytes}``; bytes are the columns' ``nbytes``."""
        stats = {}
        for cube in self.model.cubes:
            for rollup in cube.rollups:
                grain = self.engine.grains.peek((cube.cube, rollup.name))
                if grain is not None:
                    stats[f"{cube.name}/{rollup.name}"] = {
                        "rows": len(grain), "resident_bytes": grain.nbytes,
                    }
        return dict(sorted(stats.items()))
