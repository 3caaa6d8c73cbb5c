"""The :class:`Backend` protocol and the engine's backend table.

- :class:`Backend` — ``execute(ctx, query) -> rows`` and ``explain(ctx,
  query) -> PlanNode``, plus an ``available(state)`` capability check;
- :class:`BackendContext` — everything an execution needs (the engine,
  the loaded cube state, the query's counter bag and, for
  :meth:`OlapEngine.query <repro.olap.engine.OlapEngine.query>` alone,
  its shard keywords);
- a fixed table of the three base backends the planner can pick
  (``array``/``starjoin``/``bitmap``), through which the engine resolves
  backend names (:func:`get_backend`);
- :class:`RollupBackend`, the planner's fourth route: one declared grain
  that covers the query (:mod:`repro.olap.grains`), outside the table
  because ``auto`` alone picks it, with the grain it found fresh.

``auto`` is not a backend: the engine resolves it through the
:mod:`~repro.olap.planner` rule before consulting the table.  The
paper's dominated baselines (``btree``, ``mbtree``, ``leftdeep``) and
§4.2's naive probe order (``naive``) are not engine routes; the
experiment harness runs them (:mod:`repro.bench.baselines`).
"""

from __future__ import annotations

import math
import time
from abc import ABC, abstractmethod
from contextlib import contextmanager
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.core.consolidate import (
    ConsolidationSpec,
    consolidate,
    estimate_chunk_range,
)
from repro.obs.explain import PlanNode
from repro.obs.tracer import get_tracer
from repro.core.select_consolidate import Selection, consolidate_with_selection
from repro.errors import PlanError
from repro.olap.star_schema import bitmap_index_name
from repro.relational.bitmap_select import bitmap_select_consolidate
from repro.relational.star_join import star_join_consolidate
from repro.util.stats import Counters

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (engine imports us)
    from repro.olap.engine import OlapEngine, _CubeState
    from repro.olap.query import ConsolidationQuery


@dataclass
class BackendContext:
    """Everything one backend execution may need.

    ``engine`` exposes the shared helpers (the scanned selection key
    sets, measure projection); ``state`` is the loaded cube's physical
    design and its :class:`~repro.olap.engine.DimensionStats`, which
    the estimates read; ``counters`` is the query's private counter bag
    (already registered with the metrics registry for the duration of
    the query).
    """

    engine: "OlapEngine"
    state: "_CubeState"
    counters: Counters
    #: chunk-range shards for the array consolidation (1 = single
    #: scan); only :meth:`OlapEngine.query`'s measured run sets it
    shards: int = 1
    #: where shard scans run: ``local`` / ``thread`` / ``process``
    executor: str = "local"
    #: a cold measured run: chunk reads go around the chunk cache
    cold: bool = False

    @contextmanager
    def phase(self, name: str, **attrs):
        """Time one consolidation phase.

        Opens a tracer span (so slow-query profiles carry the phase
        tree) and records the duration into the engine registry's
        ``engine.phase.<name>_seconds`` histogram — the per-phase
        latency series on ``/metrics``.
        """
        start = time.perf_counter()
        with get_tracer().span(name, **attrs) as span:
            yield span
        self.engine.db.metrics.observe(
            f"engine.phase.{name}_seconds", time.perf_counter() - start
        )


class Backend(ABC):
    """One query-evaluation strategy: a name, ``execute`` and ``explain``.

    Subclasses override :meth:`available` when they need specific
    physical structures (an array, a fact file, index families).
    """

    #: table key; also stamped on results
    name: str = ""

    def available(self, state: "_CubeState") -> bool:
        """Whether this cube's physical design can serve this backend."""
        return True

    @abstractmethod
    def execute(
        self, ctx: BackendContext, query: "ConsolidationQuery"
    ) -> list[tuple]:
        """Evaluate ``query`` and return its sorted rows; the engine's
        measured run stamps timing, I/O and stats around the call."""

    @abstractmethod
    def explain(
        self, ctx: BackendContext, query: "ConsolidationQuery"
    ) -> PlanNode:
        """A structured plan tree for ``query``, estimates only.

        Each node names the tracer span whose counter deltas measure it
        (so ``EXPLAIN ANALYZE`` can attach actuals) and carries cost
        estimates in the units of the execution counters.
        """


# -- estimate helpers --------------------------------------------------------


def _estimated_groups(ctx: BackendContext, query) -> int:
    """Upper bound on result groups: Π per-dimension distinct values."""
    stats = ctx.state.dim_stats
    return math.prod(
        max(1, stats.cardinality(dim_name, attr))
        for dim_name, attr in query.group_by
    )


def _selection_masks(array, schema, key_sets) -> list[np.ndarray]:
    """The §4.2 final index lists as membership masks, derived from the
    dimension key sets (no B-tree is probed at plan time)."""
    masks = []
    for index, dim in zip(array.dims, schema.dimensions):
        mask = np.full(len(index), dim.name not in key_sets)
        if dim.name in key_sets:
            index_of = index.index_map()
            mask[[index_of[key] for key in key_sets[dim.name]]] = True
        masks.append(mask)
    return masks


def _estimated_btree_probes(query) -> int:
    """Probe count matching ``_final_index_lists``: ranges cost one
    probe, IN-lists one per value."""
    return sum(
        1 if sel.is_range else len(sel.values or ())
        for sel in query.selections
    )


# -- built-in implementations ----------------------------------------------


class ArrayBackend(Backend):
    """§4.1 consolidation / §4.2 consolidation with selection, probed
    chunk by chunk (the naive order is :func:`repro.bench.baselines.naive`,
    which reuses :meth:`operands` and :meth:`rows`)."""

    name = "array"

    def available(self, state) -> bool:
        return state.array is not None

    @staticmethod
    def operands(
        state, query
    ) -> tuple[list[ConsolidationSpec], list[Selection]]:
        """``query`` as the core kernels take it: one
        :class:`ConsolidationSpec` per cube dimension and the §4.2
        selections (a key attribute selects by key, ``None``)."""
        schema = state.schema
        grouped = dict(query.group_by)
        specs = []
        for dim in schema.dimensions:
            attr = grouped.get(dim.name)
            if attr is None:
                specs.append(ConsolidationSpec.drop())
            elif attr == dim.key:
                specs.append(ConsolidationSpec.key())
            else:
                specs.append(ConsolidationSpec.level(attr))
        selections = [
            Selection(
                sel.dimension,
                None
                if sel.attribute == schema.dimension(sel.dimension).key
                else sel.attribute,
                tuple(sel.values) if sel.values is not None else None,
                low=sel.low,
                high=sel.high,
            )
            for sel in query.selections
        ]
        return specs, selections

    @staticmethod
    def rows(ctx, query, result) -> list[tuple]:
        """The kernel's rows with the asked-for measures, in query order."""
        engine, state = ctx.engine, ctx.state
        with ctx.phase("project_rows"):
            rows = engine._project_measures(state, query, result.rows)
            return engine._reorder_array_rows(state, query, rows)

    def execute(self, ctx, query):
        state = ctx.state
        array = state.array
        specs, selections = self.operands(state, query)
        if ctx.shards > 1:
            with ctx.phase(
                "shard_consolidate",
                shards=ctx.shards,
                executor=ctx.executor,
            ):
                result = ctx.engine.shard_coordinator.consolidate(
                    ctx,
                    array,
                    specs,
                    selections,
                    query.aggregate,
                    query.cube,
                    state,
                )
        elif selections:
            with ctx.phase("consolidate_with_selection"):
                result = consolidate_with_selection(
                    array,
                    specs,
                    selections,
                    aggregate=query.aggregate,
                    counters=ctx.counters,
                    cold=ctx.cold,
                )
        else:
            with ctx.phase("consolidate"):
                result = consolidate(
                    array,
                    specs,
                    aggregate=query.aggregate,
                    counters=ctx.counters,
                    cold=ctx.cold,
                )
        return self.rows(ctx, query, result)

    def explain(self, ctx, query):
        engine, state = ctx.engine, ctx.state
        array = state.array
        schema = state.schema
        geometry = array.geometry
        n_chunks = geometry.n_chunks
        level_loads = sum(
            1
            for dim_name, attr in query.group_by
            if attr != schema.dimension(dim_name).key
        )
        # no more groups than the array stores cells
        groups = min(
            int(array.chunk_directory()[:, 2].sum()), _estimated_groups(ctx, query)
        )
        root = PlanNode(
            "array.query",
            span="query",
            detail={"cube": query.cube},
        )
        if query.selections:
            key_sets = state.dim_stats.key_sets(query.selections)
            n_sel = [
                len(key_sets[dim.name])
                if dim.name in key_sets
                else geometry.shape[d]
                for d, dim in enumerate(schema.dimensions)
            ]
            cross = math.prod(n_sel)
            # what the chunk walk and its kernel will bill, priced from
            # the directory the scan itself reads
            probe_estimates = estimate_chunk_range(
                array, range(n_chunks), _selection_masks(array, schema, key_sets)
            )
            probe_estimates["dir_loads"] = 1
            body = root.add(
                PlanNode(
                    "array.consolidate_with_selection",
                    span="consolidate_with_selection",
                    detail={"selections": len(query.selections)},
                    estimates={
                        "cross_product_size": cross,
                        "result_cells": min(groups, cross),
                    },
                )
            )
            body.add(
                PlanNode(
                    "array.resolve_mappings",
                    span="resolve_mappings",
                    estimates={"i2i_loads": level_loads},
                )
            )
            body.add(
                PlanNode(
                    "array.btree_dimension_lookup",
                    span="btree_dimension_lookup",
                    detail={
                        "dimensions": ",".join(sorted(key_sets)),
                        "final_lists": "x".join(str(n) for n in n_sel),
                    },
                    estimates={"btree_probes": _estimated_btree_probes(query)},
                )
            )
            body.add(
                PlanNode(
                    "array.probe_chunks",
                    span="probe_chunks",
                    estimates=probe_estimates,
                )
            )
            body.add(PlanNode("array.extract_rows", span="extract_rows"))
        else:
            # the whole array off the chunk directory: non-empty chunks,
            # stored bytes and valid cells, by the counters a scan bills
            stored = estimate_chunk_range(array, range(n_chunks))
            body = root.add(
                PlanNode(
                    "array.consolidate",
                    span="consolidate",
                    estimates={"result_cells": groups},
                )
            )
            body.add(
                PlanNode(
                    "array.resolve_mappings",
                    span="resolve_mappings",
                    estimates={"i2i_loads": level_loads},
                )
            )
            body.add(
                PlanNode(
                    "array.scan_chunks",
                    span="scan_chunks",
                    detail={"n_chunks": n_chunks},
                    estimates={
                        "chunks_read": stored["chunks_read"],
                        "cells_scanned": stored["cells_scanned"],
                        "chunk_bytes_read": stored["chunk_bytes_read"],
                        "dir_loads": 1,
                    },
                )
            )
            body.add(PlanNode("array.extract_rows", span="extract_rows"))
        root.add(
            PlanNode(
                "array.project_rows",
                span="project_rows",
                detail={
                    "measures": len(engine._query_measures(state, query))
                },
            )
        )
        return root


class StarjoinBackend(Backend):
    """§4.3 Starjoin operator (selections via key filters)."""

    name = "starjoin"

    def available(self, state) -> bool:
        return state.fact is not None

    def execute(self, ctx, query):
        engine, state = ctx.engine, ctx.state
        with ctx.phase("selection_key_sets"):
            key_sets = engine._selection_key_sets(state, query)
        key_filters = {
            state.schema.dimension(d).key: allowed
            for d, allowed in key_sets.items()
        }
        with ctx.phase("star_join"):
            rows = star_join_consolidate(
                state.fact,
                engine._group_specs(state, query),
                engine._query_measures(state, query),
                aggregate=query.aggregate,
                counters=ctx.counters,
                key_filters=key_filters or None,
            )
        return rows

    def explain(self, ctx, query):
        engine, state = ctx.engine, ctx.state
        fact_tuples = len(state.fact)
        selectivity = engine.estimate_selectivity(query)
        selected = round(fact_tuples * selectivity)
        groups = min(_estimated_groups(ctx, query), max(selected, 1))
        hash_entries = sum(
            len(state.dim_tables[dim_name]) for dim_name, _ in query.group_by
        )
        root = PlanNode(
            "starjoin.query",
            span="query",
            detail={
                "cube": query.cube,
                "estimated_selectivity": selectivity,
            },
        )
        root.add(
            PlanNode(
                "starjoin.selection_key_sets",
                span="selection_key_sets",
                detail={"selections": len(query.selections)},
            )
        )
        root.add(
            PlanNode(
                "starjoin.star_join",
                span="star_join",
                detail={"group_dims": len(query.group_by)},
                estimates={
                    "fact_tuples_scanned": fact_tuples,
                    "dim_hash_entries": hash_entries,
                    "result_groups": groups,
                },
            )
        )
        return root


class BitmapBackend(Backend):
    """§4.5 bitmap AND + fact-file fetch."""

    name = "bitmap"

    def available(self, state) -> bool:
        return (
            state.fact is not None
            and bool(state.bitmap_attrs)
            and not state.indices_stale
        )

    def execute(self, ctx, query):
        engine, state = ctx.engine, ctx.state
        schema = state.schema
        selections = []
        with ctx.phase("bitmap_lookup"):
            for sel in query.selections:
                if (sel.dimension, sel.attribute) not in state.bitmap_attrs:
                    raise PlanError(
                        f"no bitmap index on {sel.dimension}.{sel.attribute}; "
                        "load with bitmap_attrs covering it"
                    )
                index = engine.db.bitmap(
                    bitmap_index_name(schema, sel.dimension, sel.attribute)
                )
                if sel.is_range:
                    # one B-tree range scan over the bitmap value directory,
                    # OR-ing the qualifying values' bitmaps
                    selections.append(
                        (index, index.bitmap_for_range(sel.low, sel.high))
                    )
                else:
                    selections.append((index, list(sel.values)))
        with ctx.phase("bitmap_select"):
            rows = bitmap_select_consolidate(
                state.fact,
                engine._group_specs(state, query),
                selections,
                engine._query_measures(state, query),
                aggregate=query.aggregate,
                counters=ctx.counters,
            )
        return rows

    def explain(self, ctx, query):
        engine, state = ctx.engine, ctx.state
        fact_tuples = len(state.fact)
        selectivity = engine.estimate_selectivity(query)
        selected = round(fact_tuples * selectivity)
        root = PlanNode(
            "bitmap.query",
            span="query",
            detail={
                "cube": query.cube,
                "estimated_selectivity": selectivity,
            },
        )
        root.add(
            PlanNode(
                "bitmap.bitmap_lookup",
                span="bitmap_lookup",
                detail={"selections": len(query.selections)},
            )
        )
        root.add(
            PlanNode(
                "bitmap.bitmap_select",
                span="bitmap_select",
                estimates={
                    # one AND operand per selection (ranges pre-merge)
                    "bitmaps_fetched": len(query.selections),
                    "selected_tuples": selected,
                    "result_groups": min(
                        _estimated_groups(ctx, query), max(selected, 1)
                    ),
                },
            )
        )
        return root


class RollupBackend(Backend):
    """A covering grain re-rolled to the query's shape: ``rollup.route``
    over one ``rollup.scan`` of the grain's non-empty cells.

    One per resolution, holding the grain the planner found fresh (or
    built), so eviction between plan and run cannot take it away."""

    name = "rollup"

    def __init__(self, choice, grain):
        self.choice = choice
        self.grain = grain

    def execute(self, ctx, query):
        engine, state = ctx.engine, ctx.state
        names = [m.name for m in state.schema.measures]
        with ctx.phase("rollup.scan", rows=len(self.grain)):
            return engine.grains.answer(
                self.grain,
                query.group_by,
                query.selections,
                query.aggregate,
                [names.index(m) for m in engine._query_measures(state, query)],
            )

    def explain(self, ctx, query):
        root = PlanNode(
            "rollup.route",
            span="query",
            detail={
                "rollup": self.choice.name,
                "grain": dict(self.choice.grain),
                "candidates": list(self.choice.candidates),
            },
        )
        root.add(
            PlanNode(
                "rollup.scan",
                span="rollup.scan",
                detail={"aggregate": query.aggregate},
                estimates={
                    "rollup.rows_scanned": len(self.grain),
                    "rollup.cells_emitted": math.prod(
                        ctx.state.dim_stats.cardinality(dim, attr)
                        for dim, attr in query.group_by
                    ),
                },
            )
        )
        return root


#: the backends the engine routes by name: the planner's base three
_REGISTRY: dict[str, Backend] = {
    backend.name: backend
    for backend in (ArrayBackend(), StarjoinBackend(), BitmapBackend())
}


def get_backend(name: str) -> Backend:
    """Resolve a backend name; raises :class:`PlanError` when unknown."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise PlanError(
            f"unknown backend {name!r}; expected one of "
            f"{tuple(backend_names())}"
        ) from None


def backend_names() -> tuple[str, ...]:
    """Every backend name, in table order."""
    return tuple(_REGISTRY)


def available_backends(state: "_CubeState") -> set[str]:
    """The table's backends whose ``available(state)`` holds."""
    return {
        name for name, backend in _REGISTRY.items() if backend.available(state)
    }
