"""``append_facts`` folds a batch chunk by chunk as the per-row loop did.

The per-row loop ``OlapEngine.append_facts`` used to be — one
``get_cell`` + ``write_cell`` a row, a non-``int64`` measure folded
through Python float — is kept *here* as the reference.  Over random
small cubes (1-3 dimensions, size-1 axes, every codec, one or two
measures, ``int64`` past 2**53 or ``float64`` up to ±1e300, whose
sums depend on the order they are taken in) and random batches that
repeat cells within a batch and hit stored cells, the batched path
must leave the same cells bit for bit, the same fact file, the same
stale marking and generation.
"""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.olap import OlapEngine
from repro.olap.model import CubeSchema, DimensionDef, MeasureDef
from repro.storage import FaultPlan, fault_plan
from repro.util.records import fact_columns

CODECS = ("chunk-offset", "dense", "lzw-dense", "adaptive")


def reference_append_facts(engine, cube, rows):
    """The row-at-a-time ``append_facts`` this suite replaces."""
    state = engine.cube(cube)
    columns = fact_columns(rows)
    ndim = len(state.schema.dimensions)
    with engine.db.locks.locked(cube, "X", "reference-append"):
        state.fact.append_columns(columns)
        state.indices_stale = True
        for row in zip(*(column.tolist() for column in columns)):
            keys, measures = row[:ndim], row[ndim:]
            existing = state.array.get_cell(keys)
            if existing is not None:
                measures = tuple(
                    float(e) + m if state.array.dtype != "int64" else int(e) + m
                    for e, m in zip(existing, measures)
                )
            state.array.write_cell(keys, measures)
        # one committed write: the engine's transaction boundary
        engine.db.commit()
        state.generation += 1


@st.composite
def cases(draw):
    ndim = draw(st.integers(1, 3))
    shape = tuple(draw(st.integers(1, 5)) for _ in range(ndim))
    chunk_shape = tuple(draw(st.integers(1, size)) for size in shape)
    dtype = draw(st.sampled_from(["int64", "float64"]))
    if dtype == "int64":
        measure = st.integers(-(2**60), 2**60)
    else:
        measure = st.floats(-1e300, 1e300)  # sums of a few stay finite
    n_measures = draw(st.integers(1, 2))
    cells = list(itertools.product(*[range(size) for size in shape]))
    row = st.tuples(st.sampled_from(cells), st.tuples(*[measure] * n_measures))
    base = draw(st.lists(st.sampled_from(cells), unique=True, min_size=1))
    return {
        "schema": CubeSchema(
            "c",
            tuple(
                DimensionDef(f"dim{d}", key=f"d{d}", levels=((f"h{d}", "str:4"),))
                for d in range(ndim)
            ),
            tuple(MeasureDef(f"m{m}", dtype) for m in range(n_measures)),
        ),
        "dimension_rows": {
            f"dim{d}": [(key, f"g{key % 2}") for key in range(size)]
            for d, size in enumerate(shape)
        },
        "facts": [cell + draw(st.tuples(*[measure] * n_measures)) for cell in base],
        "chunk_shape": chunk_shape,
        "codec": draw(st.sampled_from(CODECS)),
        "batches": draw(
            st.lists(st.lists(row, min_size=1, max_size=12), min_size=1, max_size=3)
        ),
    }


def _engine(case):
    engine = OlapEngine(page_size=1024, pool_bytes=256 * 1024)
    engine.load_cube(
        case["schema"], case["dimension_rows"], case["facts"],
        chunk_shape=case["chunk_shape"], codec=case["codec"], bitmap_attrs=[],
    )
    return engine


def _stored(engine):
    state = engine.cube("c")
    array = state.array
    cells = {}
    for chunk in array.walk(range(array.geometry.n_chunks)):
        coords = array.geometry.chunk_offset_to_coords(chunk.no, chunk.offsets)
        for coord, row in zip(coords.tolist(), chunk.values):
            cells[tuple(coord)] = row.tobytes()
    directory = [entry[2] for entry in array.directory.load_all()]
    return (
        cells,
        directory,
        list(state.fact.scan()),
        state.indices_stale,
        state.generation,
    )


@settings(max_examples=120, deadline=None)
@given(cases())
def test_batched_append_equals_the_per_row_loop(case):
    batched, per_row = _engine(case), _engine(case)
    for batch in case["batches"]:
        rows = [cell + measures for cell, measures in batch]
        batched.append_facts("c", rows)
        reference_append_facts(per_row, "c", rows)
        assert _stored(batched) == _stored(per_row)


def test_a_batch_writes_each_touched_chunk_once():
    case = {
        "schema": CubeSchema(
            "c",
            (DimensionDef("dim0", key="d0", levels=(("h0", "str:4"),)),),
            (MeasureDef("m0", "int64"),),
        ),
        "dimension_rows": {"dim0": [(key, "g") for key in range(40)]},
        "facts": [(0, 1)],
        "chunk_shape": (20,),
        "codec": "chunk-offset",
    }
    engine = _engine(case)
    array = engine.cube("c").array
    rows = [(cell % 40, 1) for cell in range(200)]  # 5 rows a cell
    # a plan with no fault counts the crash points passed: one large-
    # object write (new or in place) per stored chunk
    with fault_plan(FaultPlan()) as plan:
        engine.append_facts("c", rows)
    assert plan.hits.get("lob.write", 0) + plan.hits.get("lob.write_at", 0) == 2
    assert [array.get_cell((c,))[0] for c in range(40)] == [6] + [5] * 39
