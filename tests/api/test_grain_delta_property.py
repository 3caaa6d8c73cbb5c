"""A delta-maintained grain equals a grain rebuilt from scratch.

One property over random small cubes (1-4 dimensions, size-1 axes,
hierarchies of one or two levels with random fan-outs, one or two
measures, ``int64`` past 2**53 or ``float64``), random declared grains
(some covering others, some not, the logical model's dimension order
shuffled against the physical one) and random sequences of everything
that can move a grain: cell overwrites, inserts, an overwrite *of* the
current max/min with a tamer value (the fold that cannot be followed),
an overwrite *to* a new extreme, ``append_facts``, ``rebuild_array`` and
``reclaim_grains``.  After every step and for every grain, the grain
``rows_for`` hands a request — the patched one, or one rebuilt then —
has the columns of a grain walked from the base array there and then,
and every routed answer — five
aggregates, drilldowns at every derivable level, in-list and range cuts
— equals the base consolidation.

float measures are multiples of 1/4, so their sums are exact in any
order (and ``new - old`` folds exactly): ``==`` is the right comparison
for both dtypes.

Plus the concurrency half: eight readers beside a writer see, in every
routed answer, the oracle for some prefix of the writes — never a sum
of one generation over a count of another.
"""

import itertools
import threading
import time

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.model import model_from_dict
from repro.api.server import ApiEndpoint
from repro.data import generate_fact_rows
from repro.olap import (
    ConsolidationQuery,
    OlapEngine,
    SelectionPredicate,
)
from repro.olap.grains import GrainStore
from repro.olap.model import CubeSchema, DimensionDef, MeasureDef
from repro.serve import QueryService

from .conftest import CONFIG, fresh_engine, fresh_model

AGGREGATES = ("sum", "count", "min", "max", "avg")
OPS = ("overwrite", "insert", "tame", "extreme", "append", "rebuild", "reclaim")


@st.composite
def cases(draw):
    ndim = draw(st.integers(1, 4))
    shape = tuple(draw(st.integers(1, 4)) for _ in range(ndim))
    chunk_shape = tuple(draw(st.integers(1, size)) for size in shape)
    dtype = draw(st.sampled_from(["int64", "float64"]))
    if dtype == "int64":
        measure = st.integers(-(2**54), 2**54)
    else:
        measure = st.integers(-400, 400).map(lambda quarters: quarters / 4)
    n_measures = draw(st.integers(1, 2))
    cells = list(itertools.product(*[range(size) for size in shape]))
    chosen = draw(st.lists(st.sampled_from(cells), unique=True, min_size=1))
    facts = {
        cell: tuple(draw(measure) for _ in range(n_measures)) for cell in chosen
    }
    dimensions, hierarchies, dimension_rows = [], {}, {}
    for d, size in enumerate(shape):
        n_levels = draw(st.integers(1, 2))
        fanout1 = draw(st.integers(1, size))
        fanout2 = draw(st.integers(1, fanout1))
        names = [f"h{d}1", f"h{d}2"][:n_levels]
        dimensions.append(
            DimensionDef(
                f"dim{d}", key=f"d{d}", levels=tuple((n, "str:8") for n in names)
            )
        )
        hierarchies[f"dim{d}"] = [f"d{d}"] + names
        dimension_rows[f"dim{d}"] = [
            (key, f"A{key % fanout1}", f"B{key % fanout1 % fanout2}")[: 1 + n_levels]
            for key in range(size)
        ]
    rollups = []
    for r in range(draw(st.integers(1, 3))):
        dims = draw(
            st.lists(st.sampled_from(sorted(hierarchies)), unique=True, min_size=1)
        )
        rollups.append(
            {
                "name": f"r{r}",
                "grain": {
                    dim: draw(st.sampled_from(hierarchies[dim])) for dim in dims
                },
            }
        )
    steps = draw(
        st.lists(
            st.tuples(
                st.sampled_from(OPS),
                st.integers(0, 10**6),
                st.tuples(*[measure] * n_measures),
            ),
            min_size=1,
            max_size=6,
        )
    )
    return {
        "shape": shape,
        "chunk_shape": chunk_shape,
        "schema": CubeSchema(
            "c",
            tuple(dimensions),
            tuple(MeasureDef(f"m{m}", dtype) for m in range(n_measures)),
        ),
        "dimension_rows": dimension_rows,
        "facts": facts,
        "model": {
            "cubes": [
                {
                    "name": "sales",
                    "cube": "c",
                    "dimensions": [
                        {"name": dim, "hierarchy": hierarchies[dim]}
                        for dim in draw(st.permutations(sorted(hierarchies)))
                    ],
                    "measures": [{"name": f"m{m}"} for m in range(n_measures)],
                    "rollups": rollups,
                }
            ]
        },
        "steps": steps,
        "measure": measure,
    }


def _apply(step, facts, service, router, shape):
    """One step against the stack and against ``facts`` (the oracle)."""
    op, pick, values = step
    empty = [
        cell
        for cell in itertools.product(*[range(size) for size in shape])
        if cell not in facts
    ]
    ranked = sorted(facts, key=lambda cell: facts[cell][0])
    if op in ("insert", "append") and not empty:
        op = "overwrite"
    if op == "overwrite":
        cell = ranked[pick % len(ranked)]
    elif op == "insert":
        cell = empty[pick % len(empty)]
    elif op in ("tame", "extreme"):
        # the holder of measure 0's max (or min) moves towards the
        # middle — or further out, a new extreme
        top = pick % 2 == 0
        cell = ranked[-1] if top else ranked[0]
        middle = facts[ranked[len(ranked) // 2]][0]
        beyond = facts[cell][0] + (1000 if top else -1000)
        values = (middle if op == "tame" else beyond,) + values[1:]
    elif op == "append":
        rows = empty[: 1 + pick % 3]
        service.append_facts("c", [cell + values for cell in rows])
        facts.update((cell, values) for cell in rows)
        return
    elif op == "rebuild":
        service.rebuild_array("c")
        return
    else:
        held = sum(s["resident_bytes"] for s in router.grain_stats().values())
        router.reclaim_grains(held // 2 if pick % 2 else 0)
        return
    service.write_cell("c", cell, values)
    facts[cell] = values


def _requests(router, cube, rollup):
    """Drilldowns at every derivable level of every grain dimension, and
    an in-list and a range cut on each."""
    grains = router.engine.grains
    grain = rollup.grain_dict()
    derivable = {}
    for dim, stored in grain.items():
        hierarchy = cube.dimension(dim).hierarchy
        derivable[dim] = [
            attr
            for attr in hierarchy[hierarchy.index(stored):]
            if attr == stored
            or grains.derive_map(cube.cube, dim, stored, attr) is not None
        ]
    yield list(grain.items()), []
    for dim, attrs in derivable.items():
        for attr in attrs:
            members = router.engine.cube(cube.cube).dim_stats.members(dim, attr)
            others = [(d, a) for d, a in grain.items() if d != dim][:1]
            yield [(dim, attr)], []
            yield others + [(dim, attr)], [
                SelectionPredicate.in_list(dim, attr, *members[:2])
            ]
            yield others or [(dim, attr)], [
                SelectionPredicate.between(dim, attr, members[0], members[-1])
            ]
            yield [(dim, attr)], [SelectionPredicate.between(dim, attr, members[-1])]


def _base(service, group_by, cuts, aggregate):
    query = ConsolidationQuery.build(
        "c", group_by=dict(group_by), selections=cuts, aggregate=aggregate
    )
    # pinned: auto would answer from the grain under test
    return sorted(service.execute(query, "array").rows)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(cases())
def test_delta_maintained_grain_equals_rebuild(case):
    engine = OlapEngine(page_size=1024, pool_bytes=512 * 1024)
    facts = dict(case["facts"])
    engine.load_cube(
        case["schema"],
        case["dimension_rows"],
        [cell + values for cell, values in facts.items()],
        chunk_shape=case["chunk_shape"],
        bitmap_attrs=[],
    )
    service = QueryService(engine)
    endpoint = ApiEndpoint(engine, service, model_from_dict(case["model"]))
    router, cube = endpoint.router, endpoint.model.cube("sales")
    n_measures = len(case["schema"].measures)
    try:
        assert len(router.grain_stats()) == len(cube.rollups)  # built at start
        for step in case["steps"]:
            _apply(step, facts, service, router, case["shape"])
            for rollup in cube.rollups:
                grain = router.rows_for(cube, rollup)
                # a grain store of its own has nothing resident to
                # re-roll from: this is one walk of the base array, now
                scratch = GrainStore(engine)
                scratch.declared = engine.grains.declared
                walked = scratch.rows_for(engine.cube("c"), rollup.name)
                assert grain.generation == walked.generation
                assert np.array_equal(grain.fold.counts, walked.fold.counts), step
                assert int(grain.fold.counts.sum()) == len(facts)
                for m, columns in enumerate(walked.fold.columns):
                    for name, column, patched in zip(
                        ("sum", "min", "max"), columns, grain.fold.columns[m]
                    ):
                        assert np.array_equal(patched, column), (step, m, name)
                for group_by, cuts in _requests(router, cube, rollup):
                    for aggregate in AGGREGATES:
                        routed = router.scan(
                            cube, rollup, grain, group_by, cuts, aggregate,
                            list(range(n_measures)),
                        )
                        assert routed == _base(service, group_by, cuts, aggregate), (
                            step, rollup, group_by, cuts, aggregate,
                        )
    finally:
        endpoint.close()
        service.close()


# -- eight readers beside a writer ------------------------------------------


def _level(key, level):
    group = key % CONFIG.fanout1
    return f"AA{group}" if level == 1 else f"BB{group % CONFIG.fanout2}"


def _oracle(facts):
    """``{dim0.h02 member: (sum, count)}`` over ``facts``."""
    totals = {}
    for keys, value in facts.items():
        member = _level(keys[0], 2)
        total, count = totals.get(member, (0, 0))
        totals[member] = (total + value, count + 1)
    return totals


def test_readers_beside_a_writer_see_whole_generations():
    engine = fresh_engine()
    service = QueryService(engine)
    endpoint = ApiEndpoint(engine, service, fresh_model())
    router, cube = endpoint.router, endpoint.model.cube("sales")
    coarse = cube.rollups[0]
    facts = {tuple(row[:3]): row[3] for row in generate_fact_rows(CONFIG)}
    empty = [
        cell
        for cell in itertools.product(*[range(size) for size in CONFIG.dim_sizes])
        if cell not in facts
    ]
    # inserts and overwrites alternate, every value distinct and large, so
    # each prefix has its own sums *and* counts: an answer names its prefix
    writes = [
        (empty[i // 2] if i % 2 == 0 else sorted(facts)[i], 10**6 * (i + 1))
        for i in range(40)
    ]
    prefixes = [_oracle(facts)]
    for keys, value in writes:
        facts[keys] = value
        prefixes.append(_oracle(facts))
    as_avg = [
        sorted((m, total / count) for m, (total, count) in prefix.items())
        for prefix in prefixes
    ]
    acknowledged = [0]
    stop = threading.Event()
    problems: list = []
    answers = [0]

    def writer():
        for keys, value in writes:
            service.write_cell(CONFIG.name, keys, (value,))
            acknowledged[0] += 1
            time.sleep(0.003)
        stop.set()

    def reader():
        group_by = [("dim0", "h02")]
        while not stop.is_set():
            low = acknowledged[0]
            grain = router.try_rows(cube, coarse, "avg")
            if grain is None:  # between the generation bump and the patch
                continue
            sums = router.scan(cube, coarse, grain, group_by, [], "sum", [0])
            counts = router.scan(cube, coarse, grain, group_by, [], "count", [0])
            _, payload = endpoint.aggregate(
                "sales",
                lambda parser: parser.from_params(
                    {"drilldown": "dim0:h02", "aggregate": "avg"}
                ),
            )
            high = acknowledged[0] + 1  # one write may be in flight
            seen = {m: (s, dict(counts)[m]) for m, s in sums}
            if seen not in prefixes[low : high + 1]:
                problems.append(("torn grain", low, high, seen))
            if payload["route"]["source"] == "rollup":
                avg = sorted((c["dim0.h02"], c["volume"]) for c in payload["cells"])
                if avg not in as_avg[low : high + 1]:
                    problems.append(("torn answer", low, high, avg))
            answers[0] += 1

    threads = [threading.Thread(target=writer)]
    threads += [threading.Thread(target=reader) for _ in range(8)]
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        stop.set()
        endpoint.close()
        service.close()
    assert problems == []
    assert acknowledged[0] == len(writes) and answers[0] > len(writes)
    assert router.counters.get("rollup.deltas") == 2 * len(writes)  # both grains
