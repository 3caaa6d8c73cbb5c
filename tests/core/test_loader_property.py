"""The column-at-a-time load writes what the row-at-a-time load wrote.

The per-row loops that ``build_olap_array``, ``FactFile.append_many`` and
``BitmapIndex.build`` used to be are kept *here*, as the reference
loader, and so is the one ``BTree.insert`` per key that built each of
the load's B-trees before ``BTree.build``.  Over random geometries
(1-D, size-1 axes, ragged edge chunks), int and string keys in shuffled
dimension order, 0..all cells valid, 1-3 measures of either dtype,
every codec, and rows given as tuples, as a generator or as the
generator's array-backed ``FactRows``, both loaders must leave
byte-identical ``SimulatedDisk`` page lists.

The pinned digests at the end were recorded on the parent commit, before
the loops were replaced: same seed, same cube, same layout.
"""

import hashlib
import itertools
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.bench.harness import bench_settings, build_cube_engine
from repro.core.builder import DimensionData, build_olap_array
from repro.core.chunking import ChunkGeometry
from repro.core.compression import get_codec
from repro.core.dimension_index import encode_keys
from repro.core.index_to_index import IndexToIndex
from repro.core.meta import ChunkDirectory
from repro.data.datasets import dataset1
from repro.data.generator import FactRows, generate_fact_rows, h1_value
from repro.errors import ArrayError, BitmapError, DimensionError
from repro.index.bitmap import BitmapIndex
from repro.index.btree import BTree
from repro.relational import FactFile, Schema
from repro.storage import BufferPool, FileManager, SimulatedDisk
from repro.storage.large_object import LargeObjectStore
from repro.util import Bitset

CODECS = ("chunk-offset", "dense", "lzw-dense", "adaptive")


# -- the reference loader: the deleted row-at-a-time loops ---------------------


def reference_build_olap_array(
    fm, name, dimensions, facts, chunk_shape, codec, dtype, measure_names=None
):
    shape = tuple(len(d.keys) for d in dimensions)
    geometry = ChunkGeometry(shape, chunk_shape)
    ndim = geometry.ndim
    chunk_store = LargeObjectStore(fm, f"{name}.chunks")
    aux = LargeObjectStore(fm, f"{name}.aux")
    directory = ChunkDirectory.create(fm, f"{name}.dir", geometry.n_chunks)
    rev_oids, key_maps = [], []
    for i, d in enumerate(dimensions):
        tree = BTree.create(fm, f"{name}.dim{i}.key")
        for index, key in enumerate(d.keys):
            tree.insert(key, index)
        rev_oids.append(aux.create(encode_keys(d.keys)))
        key_maps.append({key: index for index, key in enumerate(d.keys)})

    coords_rows, measure_rows = [], []
    n_measures = None
    for row in facts:
        if n_measures is None:
            n_measures = len(row) - ndim
            if n_measures < 1:
                raise ArrayError("no measure")
        try:
            coords_rows.append(tuple(key_maps[d][row[d]] for d in range(ndim)))
        except KeyError as exc:
            raise DimensionError(f"unknown key {exc.args[0]!r}") from None
        measure_rows.append(row[ndim:])
    if n_measures is None:
        n_measures = 1
    if measure_names is None:
        measure_names = [f"m{i}" for i in range(n_measures)]

    np_dtype = np.int64 if dtype == "int64" else np.float64
    codec_obj = get_codec(codec)
    if coords_rows:
        coords = np.array(coords_rows, dtype=np.int64)
        values = np.array(measure_rows, dtype=np_dtype).reshape(
            len(measure_rows), n_measures
        )
        grid_coords, in_chunk = np.divmod(
            coords, np.array(geometry.chunk_shape, dtype=np.int64)
        )
        chunk_nos = grid_coords @ np.array(geometry.grid_strides, dtype=np.int64)
        offsets = in_chunk @ np.array(geometry.cell_strides, dtype=np.int64)
        order = np.lexsort((offsets, chunk_nos))
        chunk_nos, offsets, values = chunk_nos[order], offsets[order], values[order]
        if ((np.diff(chunk_nos) == 0) & (np.diff(offsets) == 0)).any():
            raise ArrayError("duplicate cell")
        boundaries = np.searchsorted(chunk_nos, np.arange(geometry.n_chunks + 1))
        for chunk_no in range(geometry.n_chunks):
            start, stop = boundaries[chunk_no], boundaries[chunk_no + 1]
            if start == stop:
                continue
            payload = codec_obj.encode(
                offsets[start:stop].astype(np.int32),
                values[start:stop],
                geometry.chunk_cells,
                dtype,
            )
            oid = chunk_store.create(payload)
            directory.set_entry(chunk_no, oid, len(payload), int(stop - start))

    meta_dims = []
    for i, (data, rev_oid) in enumerate(zip(dimensions, rev_oids)):
        attrs_meta = {}
        for attr, attr_values in data.attributes.items():
            tree = BTree.create(fm, f"{name}.dim{i}.{attr}.idx")
            for index, value in enumerate(attr_values):
                tree.insert(value, index)
            i2i = IndexToIndex.build(list(attr_values))
            attrs_meta[attr] = {"i2i_oid": aux.create(i2i.to_blob())}
        meta_dims.append(
            {"name": data.name, "rev_oid": rev_oid, "attrs": attrs_meta}
        )
    meta = {
        "name": name,
        "shape": list(shape),
        "chunk_shape": list(geometry.chunk_shape),
        "dtype": dtype,
        "n_measures": n_measures,
        "measure_names": measure_names,
        "codec": codec,
        "dims": meta_dims,
    }
    directory.set_array_meta_oid(aux.create(json.dumps(meta).encode("utf-8")))


def reference_append_many(fact, rows):
    codec = fact.schema.codec
    size, per_page = fact.record_size, fact.records_per_page
    rows = iter(rows)
    while True:
        page_no, index = divmod(fact._count, per_page)
        batch = list(itertools.islice(rows, per_page - index))
        if not batch:
            break
        if page_no == fact._file.npages:
            fact._file.append_page()
        buf = fact._file.read(page_no)
        fact._file.mark_dirty(page_no)
        for offset, row in zip(range(index * size, per_page * size, size), batch):
            codec.pack_into(buf, offset, row)
            fact._count += 1
    fact._store_meta()


def reference_bitmap_groups(position_values):
    groups = {}
    for position, value in enumerate(position_values):
        groups.setdefault(value, []).append(position)
    return groups


def reference_bitmap_build(fm, name, length, position_values):
    index = BitmapIndex(fm, name, length)
    groups = reference_bitmap_groups(position_values)
    for value in sorted(groups):
        bits = Bitset.from_indices(length, groups[value])
        index._directory.insert(value, index._store.create(bits.to_bytes()))
    return index


# -- harness ----------------------------------------------------------------------


def fresh_fm(page_size=512):
    disk = SimulatedDisk(page_size=page_size)
    return FileManager(BufferPool(disk, capacity_bytes=256 * page_size))


def pages(fm):
    fm.pool.flush_all()
    return list(fm.pool.disk._pages)


ROW_FORMS = ("tuples", "generator", "array-backed")


def in_form(rows, form):
    """The same rows as a list of tuples, a one-shot generator, or the
    generator module's array-backed Sequence (all-integer rows only)."""
    if form == "generator":
        return (row for row in rows)
    if form == "array-backed":
        return FactRows(np.array(rows, dtype=np.int64).reshape(len(rows), -1))
    return rows


@st.composite
def cubes(draw):
    ndim = draw(st.integers(1, 4))
    shape = tuple(draw(st.integers(1, 5)) for _ in range(ndim))
    chunk_shape = tuple(
        draw(st.one_of(st.just(size), st.integers(1, size))) for size in shape
    )
    dimensions, all_int = [], True
    for d, size in enumerate(shape):
        if draw(st.booleans()):
            keys = draw(st.permutations([k * 7 - 9 for k in range(size)]))
        else:
            # "AA10" < "AA3": string order is not numeric order
            keys = draw(st.permutations([f"AA{k * 7}" for k in range(size)]))
            all_int = False
        fanout = draw(st.integers(1, size))
        dimensions.append(
            DimensionData(
                f"dim{d}", list(keys), {"h1": [f"L{i % fanout}" for i in range(size)]}
            )
        )
    dtype = draw(st.sampled_from(["int64", "float64"]))
    if dtype == "int64":
        measure = st.integers(-(2**62), 2**62)  # past 2**53: no float detour
    else:
        measure = st.integers(-400, 400).map(lambda quarters: quarters / 4)
        all_int = False
    cells = list(itertools.product(*[d.keys for d in dimensions]))
    chosen = draw(st.permutations(cells))[: draw(st.integers(0, len(cells)))]
    n_measures = draw(st.integers(1, 3))
    facts = [
        tuple(cell) + tuple(draw(measure) for _ in range(n_measures))
        for cell in chosen
    ]
    form = draw(st.sampled_from(ROW_FORMS if all_int and facts else ROW_FORMS[:2]))
    return {
        "dimensions": dimensions,
        "chunk_shape": chunk_shape,
        "dtype": dtype,
        "codec": draw(st.sampled_from(CODECS)),
        "facts": facts,
        "form": form,
    }


@settings(max_examples=150, deadline=None)
@given(cubes())
def test_array_pages_equal_the_row_loaders(case):
    twins = []
    for build, facts in (
        (reference_build_olap_array, case["facts"]),
        (build_olap_array, in_form(case["facts"], case["form"])),
    ):
        fm = fresh_fm()
        build(
            fm, "cube", case["dimensions"], facts, case["chunk_shape"],
            codec=case["codec"], dtype=case["dtype"],
        )
        twins.append(pages(fm))
    assert twins[0] == twins[1]


FIELD_TYPES = {
    "int32": st.integers(-(2**31), 2**31 - 1),
    "int64": st.integers(-(2**63), 2**63 - 1),
    "float64": st.floats(allow_nan=False) | st.integers(-(2**40), 2**40),
    "str:6": st.text(
        st.characters(codec="utf-8", exclude_characters="\x00"), max_size=6
    ).filter(lambda s: len(s.encode()) <= 6),
    "str:1": st.sampled_from(["", "a", "z"]),
}


@st.composite
def tables(draw):
    types = draw(st.lists(st.sampled_from(sorted(FIELD_TYPES)), min_size=1, max_size=5))
    row = st.tuples(*[FIELD_TYPES[t] for t in types])
    earlier = draw(st.lists(row, max_size=12))
    batches = draw(st.lists(st.lists(row, max_size=40), min_size=1, max_size=3))
    all_int = all(t in ("int32", "int64") for t in types)
    forms = [
        draw(st.sampled_from(ROW_FORMS if all_int and batch else ROW_FORMS[:2]))
        for batch in batches
    ]
    return types, earlier, batches, forms


@settings(max_examples=150, deadline=None)
@given(tables())
def test_fact_file_pages_equal_the_row_loaders(case):
    types, earlier, batches, forms = case
    schema = Schema([(f"c{i}", t) for i, t in enumerate(types)])
    twins = []
    for columnar in (False, True):
        fm = fresh_fm(page_size=256)
        fact = FactFile.create(fm, "fact", schema, extent_pages=2)
        for row in earlier:  # the bulk append then starts mid-page
            fact.append(row)
        for batch, form in zip(batches, forms):
            if columnar:
                fact.append_many(in_form(batch, form))
            else:
                reference_append_many(fact, batch)
        assert len(fact) == len(earlier) + sum(map(len, batches))
        # the column read is the row scan, a column at a time
        columns = schema.codec.unpack_columns(fact.records())
        assert list(zip(*(c.tolist() for c in columns))) == list(fact.scan())
        twins.append(pages(fm))
    assert twins[0] == twins[1]


VALUE_SETS = (
    st.sampled_from(["AA0", "AA1", "AA10", "AA3", ""]),
    st.integers(-3, 3),
)


# 600 labels: the value directory outgrows its first extent between
# two bitmaps, so its pages must interleave with theirs as the loop's did
@example(values=list(range(600)))
@settings(max_examples=100, deadline=None)
@given(st.sampled_from(VALUE_SETS).flatmap(lambda v: st.lists(v, max_size=200)))
def test_bitmaps_equal_the_row_loaders(values):
    groups = reference_bitmap_groups(values)
    twins = []
    for build in (reference_bitmap_build, BitmapIndex.build):
        fm = fresh_fm()
        index = build(fm, "bm", len(values), iter(values))
        assert index.values() == sorted(groups)
        for value, positions in groups.items():
            assert index.bitmap_for(value) == Bitset.from_indices(
                len(values), positions
            )
        twins.append(pages(fm))
    assert twins[0] == twins[1]


def test_a_coded_bitmap_skips_labels_that_never_occur(fm):
    codes = np.array([2, 0, 2, 2, 0])
    index = BitmapIndex.build_coded(fm, "bm", 5, ["a", "b", "c"], codes)
    assert index.values() == ["a", "c"]
    assert index.bitmap_for("c") == Bitset.from_indices(5, [0, 2, 3])
    assert index.bitmap_for("b").count() == 0


@pytest.mark.parametrize("given_length", [0, 9, 11])
def test_bitmap_of_the_wrong_length_still_raises(fm, given_length):
    before = fm.names()
    with pytest.raises(BitmapError):
        BitmapIndex.build(fm, "x", 10, ["a"] * given_length)
    with pytest.raises(BitmapError):
        BitmapIndex.build_coded(fm, "x", 10, ["a"], np.zeros(given_length, np.intp))
    assert fm.names() == before


def test_engine_bitmaps_equal_the_reference_groups():
    config = dataset1("small")[1]
    rows = generate_fact_rows(config)
    engine = build_cube_engine(config, settings=bench_settings("small"))
    for d in range(config.ndim):
        index = engine.db.bitmap(f"{config.name}.dim{d}.h{d}1.bm")
        groups = reference_bitmap_groups(h1_value(config, row[d]) for row in rows)
        assert index.values() == sorted(groups)
        for value, positions in groups.items():
            assert index.bitmap_for(value) == Bitset.from_indices(len(rows), positions)


# -- pinned on the parent commit: same seed, same cube, same layout -----------------

GOLDEN_ROWS = "d5b2efd24bbd5f452e5f108e9906b605f4b8410c019080404f0edf55e2d863ad"
GOLDEN_IMAGES = {
    ("array",): (1000, "7feba4ceeaf35d47fad0d25e46c3fb2c6f7280bee4446e7170c9e57aeb53f601"),
    ("array", "relational"): (
        2347,
        "e26a8375fc3da09437955af035bc58bae2972e3818fdd9ac8b22880ace2e70f0",
    ),
}


def test_generated_rows_are_the_parents():
    rows = np.asarray(generate_fact_rows(dataset1("small")[1]), dtype=np.int64)
    assert rows.shape == (5120, 5)
    digest = hashlib.sha256(np.ascontiguousarray(rows).tobytes()).hexdigest()
    assert digest == GOLDEN_ROWS


@pytest.mark.parametrize("backends", GOLDEN_IMAGES)
def test_volume_image_is_the_parents(backends):
    engine = build_cube_engine(
        dataset1("small")[1], settings=bench_settings("small"), backends=backends
    )
    engine.db.pool.flush_all()
    digest = hashlib.sha256()
    for image in engine.db.disk._pages:
        digest.update(bytes(engine.db.disk.page_size) if image is None else image)
    assert (engine.db.disk.num_pages, digest.hexdigest()) == GOLDEN_IMAGES[backends]
