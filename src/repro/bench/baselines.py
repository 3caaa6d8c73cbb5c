"""The paper's baselines, run by the harness and not the engine.

The paper tried plain per-dimension B-trees, a skipping multi-attribute
B-tree (§4.4) and pipelined left-deep hash joins (§1, §4.3), and
reports them only as dominated.  They feed fig8's B-tree series and the
abl3/abl8 ablations.  ``naive`` is §4.2's selection with optimizations
1 and 3 off — cross-product elements probed in global index order, each
re-deriving its chunk — and feeds abl5.  No planner choice reaches any
of them, so the engine does not route them.  Each is a function
``(ctx, query) -> rows`` that :func:`repro.bench.run_cold` hands to
:meth:`OlapEngine.measured_run
<repro.olap.engine.OlapEngine.measured_run>`: the same cold flush,
counter capture and spans as an engine backend.
"""

from __future__ import annotations

from repro.core.select_consolidate import consolidate_with_selection
from repro.errors import PlanError
from repro.olap.backends import ArrayBackend
from repro.olap.star_schema import btree_index_name, mbtree_index_name
from repro.relational.btree_select import btree_select_consolidate
from repro.relational.mbtree_select import mbtree_select_consolidate
from repro.relational.operators import Filter, SeqScan, left_deep_consolidation


def _require_indexed(state, query, name: str, built: bool, flag: str) -> None:
    """A B-tree baseline needs its index built, fresh, and a selection."""
    if state.fact is None or not built:
        raise PlanError(
            f"the {name} baseline needs a cube loaded with {flag}=True"
        )
    if state.indices_stale:
        raise PlanError(
            f"the {name} baseline's indices predate an append; rebuild "
            "the cube first"
        )
    if not query.selections:
        raise PlanError(f"the {name} baseline needs at least one selection")


def btree(ctx, query) -> list[tuple]:
    """Standard B-tree selection baseline (§4.4's also-ran)."""
    engine, state = ctx.engine, ctx.state
    _require_indexed(state, query, "btree", bool(state.btree_dims), "fact_btrees")
    schema = state.schema
    with ctx.phase("selection_key_sets"):
        key_sets = engine._selection_key_sets(state, query)
    selections = []
    for dim_name, allowed in key_sets.items():
        if dim_name not in state.btree_dims:
            raise PlanError(
                f"no fact B-tree on dimension {dim_name!r}; load with "
                "fact_btrees=True"
            )
        tree = engine.db.btree(btree_index_name(schema, dim_name))
        selections.append((tree, sorted(allowed)))
    with ctx.phase("btree_select"):
        return btree_select_consolidate(
            state.fact,
            engine._group_specs(state, query),
            selections,
            engine._query_measures(state, query),
            aggregate=query.aggregate,
            counters=ctx.counters,
        )


def mbtree(ctx, query) -> list[tuple]:
    """Skipping multi-attribute B-tree reconstruction (§4.4)."""
    engine, state = ctx.engine, ctx.state
    _require_indexed(state, query, "mbtree", state.has_mbtree, "fact_mbtree")
    schema = state.schema
    with ctx.phase("selection_key_sets"):
        key_sets = engine._selection_key_sets(state, query)
        allowed = []
        for dim in schema.dimensions:
            if dim.name in key_sets:
                allowed.append(sorted(key_sets[dim.name]))
            else:
                table = state.dim_tables[dim.name]
                key_pos = table.schema.index_of(dim.key)
                allowed.append(sorted(row[key_pos] for row in table.scan()))
    tree = engine.db.btree(mbtree_index_name(schema))
    with ctx.phase("mbtree_select"):
        return mbtree_select_consolidate(
            state.fact,
            engine._group_specs(state, query),
            tree,
            allowed,
            engine._query_measures(state, query),
            aggregate=query.aggregate,
            counters=ctx.counters,
        )


def leftdeep(ctx, query) -> list[tuple]:
    """Pipelined left-deep hash-join plan (§1's "traditional")."""
    engine, state = ctx.engine, ctx.state
    if state.fact is None:
        raise PlanError("the leftdeep baseline needs the fact file")
    schema = state.schema
    grouped = dict(query.group_by)
    key_sets = engine._selection_key_sets(state, query)
    joined = [
        d.name
        for d in schema.dimensions
        if d.name in grouped or d.name in key_sets
    ]
    fact_scan = SeqScan(state.fact, alias="f")
    dim_scans = []
    for dim_name in joined:
        dim = schema.dimension(dim_name)
        scan = SeqScan(state.dim_tables[dim_name], alias=dim_name)
        if dim_name in key_sets:
            allowed = key_sets[dim_name]
            key_col = f"{dim_name}.{dim.key}"
            position = scan.names.index(key_col)
            scan = Filter(
                scan,
                predicate=lambda row, p=position, a=frozenset(allowed): row[p] in a,
            )
        dim_scans.append((scan, f"{dim_name}.{dim.key}", f"f.{dim.key}"))
    plan = left_deep_consolidation(
        fact_scan,
        dim_scans,
        [f"{d}.{grouped[d]}" for d in query.group_dims],
        [f"f.{m}" for m in engine._query_measures(state, query)],
        aggregate=query.aggregate,
    )
    with ctx.phase("leftdeep_pipeline", joins=len(dim_scans)):
        ctx.counters.add("leftdeep_joins", len(dim_scans))
        return list(plan)


def naive(ctx, query) -> list[tuple]:
    """§4.2 in naive probe order (abl5); the array backend otherwise.

    The query's operands and its rows are :class:`ArrayBackend`'s own,
    so the probe order is the only difference.  A query without a
    selection has nothing to probe and runs the §4.1 scan.
    """
    backend = ArrayBackend()
    if not backend.available(ctx.state):
        raise PlanError("the naive baseline needs a cube loaded with its array")
    if not query.selections:
        return backend.execute(ctx, query)
    specs, selections = backend.operands(ctx.state, query)
    with ctx.phase("consolidate_with_selection"):
        result = consolidate_with_selection(
            ctx.state.array,
            specs,
            selections,
            aggregate=query.aggregate,
            order="naive",
            counters=ctx.counters,
            cold=ctx.cold,
        )
    return backend.rows(ctx, query, result)


#: the baselines :func:`repro.bench.run_cold` runs, by name
BASELINES = {
    "btree": btree,
    "mbtree": mbtree,
    "leftdeep": leftdeep,
    "naive": naive,
}
