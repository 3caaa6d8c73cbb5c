"""An in-place cell write stores what a re-encode would have stored.

``OLAPArray.write_cell`` patches an existing cell's ``8·p`` value bytes
where the codec says they live (``LargeObjectStore.write_at``) and
re-encodes a chunk over its own page run for an insert.  Over random
1-D arrays (size-1 and full chunks, ``p`` in {1, 3}, ``int64`` past
2**53, ``float64`` drawn as raw bit patterns: -0.0, infinities, NaN
payloads) and random interleavings of overwrites and inserts, after
every step each stored payload must be byte-equal to the codec's
encoding of the reference cells, and ``get_cell`` / ``walk`` must return
the reference.  128-byte pages make most chunks span several pages, so
value slots straddle page boundaries.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.builder import DimensionData, build_olap_array
from repro.core.compression import get_codec
from repro.core.meta import NO_CHUNK
from repro.relational.catalog import Database
from repro.storage import BufferPool, FileManager, SimulatedDisk, WriteAheadLog

PAGE = 128
CODECS = ("chunk-offset", "dense", "adaptive", "lzw-dense")
INT64 = st.integers(-(2**63), 2**63 - 1)


def _as_dtype(bits: list[int], dtype: str) -> np.ndarray:
    """Raw 64-bit patterns as measure values: every float, NaN payloads too."""
    raw = np.array(bits, dtype=np.int64)
    return raw if dtype == "int64" else raw.view(np.float64)


@st.composite
def scenarios(draw):
    size = draw(st.integers(1, 40))
    chunk = draw(st.integers(1, size))
    p = draw(st.sampled_from([1, 3]))
    dtype = draw(st.sampled_from(["int64", "float64"]))
    codec = draw(st.sampled_from(CODECS))
    every = draw(st.booleans())  # full chunks (dense under adaptive)
    cells = sorted(
        set(range(size)) if every else draw(st.sets(st.integers(0, size - 1)))
    )
    initial = {c: draw(st.lists(INT64, min_size=p, max_size=p)) for c in cells}
    ops = draw(
        st.lists(
            st.tuples(
                st.integers(0, size - 1), st.lists(INT64, min_size=p, max_size=p)
            ),
            min_size=1,
            max_size=25,
        )
    )
    return size, chunk, p, dtype, codec, initial, ops


def _build(size, chunk, p, dtype, codec, initial):
    pool = BufferPool(
        SimulatedDisk(page_size=PAGE), capacity_bytes=256 * PAGE, wal=WriteAheadLog()
    )
    facts = [
        (c, *_as_dtype(bits, dtype).tolist()) for c, bits in sorted(initial.items())
    ]
    return build_olap_array(
        FileManager(pool), "a", [DimensionData("d", list(range(size)))], facts,
        (chunk,), codec=codec, dtype=dtype, measure_names=[f"m{i}" for i in range(p)],
    )


def _check(array, reference, codec):
    geometry = array.geometry
    encoder = get_codec(codec)
    for chunk_no, (oid, length, count) in enumerate(array.directory.load_all()):
        start = chunk_no * geometry.chunk_cells
        mine = sorted(c for c in reference if start <= c < start + geometry.chunk_cells)
        assert count == len(mine)
        if oid == NO_CHUNK:
            assert not mine
            continue
        offsets = np.array([c - start for c in mine], dtype=np.int32)
        values = np.array(
            [reference[c] for c in mine], dtype=array.dtype
        ).reshape(len(mine), array.n_measures)
        payload = array.chunks.read(oid)
        assert len(payload) == length
        assert payload == encoder.encode(
            offsets, values, geometry.chunk_cells, array.dtype
        )
    walked = {}
    for chunk in array.walk(range(geometry.n_chunks)):
        for offset, row in zip(chunk.offsets.tolist(), chunk.values):
            walked[chunk.no * geometry.chunk_cells + offset] = row.tobytes()
    assert walked == {c: v.tobytes() for c, v in reference.items()}


@settings(max_examples=150, deadline=None)
@given(scenarios())
def test_patch_and_rewrite_equal_the_reencode(scenario):
    size, chunk, p, dtype, codec, initial, ops = scenario
    array = _build(size, chunk, p, dtype, codec, initial)
    reference = {c: _as_dtype(bits, dtype) for c, bits in initial.items()}
    _check(array, reference, codec)
    for cell, bits in ops:
        measures = _as_dtype(bits, dtype)
        replaced = array.write_cell((cell,), measures)
        old = reference.get(cell)
        assert (replaced is None) == (old is None)
        if old is not None:
            assert replaced.tobytes() == old.tobytes()
        reference[cell] = measures
        assert array.get_cell((cell,)).tobytes() == measures.tobytes()
        array.fm.pool.commit()
        _check(array, reference, codec)


# -- what a write costs --------------------------------------------------------


def _write_log(db):
    counters = db.wal.counters
    return counters.get("wal_records"), counters.get("wal_commits")


def _one_chunk_array(db, n_cells):
    """One multi-page chunk-offset chunk on ``db``'s default 8 KiB pages."""
    return build_olap_array(
        db.fm, "a", [DimensionData("d", list(range(n_cells)))],
        [(c, c) for c in range(n_cells)], (n_cells,),
    )


def test_overwrites_keep_the_volume_flat_and_log_one_page_each():
    db = Database(enable_wal=True)
    array = _one_chunk_array(db, 2000)  # 5 + 12 * 2000 B: three pages
    db.commit()
    used, (records, commits) = db.disk.used_bytes(), _write_log(db)
    oid = array.directory.entry(0)[0]
    for i in range(1000):
        array.write_cell((1234,), [i])
        db.commit()
    assert db.disk.used_bytes() == used
    assert array.directory.entry(0)[0] == oid
    after_records, after_commits = _write_log(db)
    assert after_commits - commits == 1000
    # one page image + one commit per overwrite: the value never straddles
    assert after_records - records == 2 * 1000
    assert array.get_cell((1234,)).tolist() == [999]


def test_a_straddling_value_logs_its_two_pages():
    db = Database(page_size=PAGE, enable_wal=True)
    array = _one_chunk_array(db, 40)  # values start at 5 + 4 * 40 = 165
    db.commit()
    # rank 11's 8 bytes are [253, 261): across the 256-byte page boundary
    records, commits = _write_log(db)
    replaced = array.write_cell((11,), [-7])
    db.commit()
    assert replaced.tolist() == [11]
    after_records, after_commits = _write_log(db)
    assert (after_records - records, after_commits - commits) == (3, 1)
    db.pool.clear()
    assert array.get_cell((11,)).tolist() == [-7]
    assert [array.get_cell((c,)).tolist() for c in (10, 12)] == [[10], [12]]


def test_inserts_rewrite_their_run_until_it_is_outgrown():
    db = Database(page_size=PAGE, enable_wal=True)
    array = build_olap_array(
        db.fm, "a", [DimensionData("d", list(range(40)))], [(0, 0)], (40,)
    )
    oid = array.directory.entry(0)[0]
    assert array.chunks.object_pages(oid) == 1  # 5 + 12 B
    used = db.disk.used_bytes()
    for cell in range(1, 10):  # 5 + 12 * 10 = 125 B still fits one page
        assert array.write_cell((cell,), [cell]) is None
    assert array.directory.entry(0)[0] == oid
    assert db.disk.used_bytes() == used
    array.write_cell((10,), [10])  # 137 B: the chunk moves to a new run
    moved = array.directory.entry(0)[0]
    assert moved != oid and array.chunks.object_pages(moved) == 2
    assert db.disk.used_bytes() == used + 2 * PAGE
    assert [array.get_cell((c,)).tolist() for c in range(11)] == [
        [c] for c in range(11)
    ]


@pytest.mark.parametrize("at,size", [(-1, 1), (0, 18), (17, 1), (10, 8)])
def test_write_at_stays_inside_the_object(at, size):
    from repro.errors import FileError
    from repro.storage import LargeObjectStore

    pool = BufferPool(SimulatedDisk(page_size=PAGE))
    store = LargeObjectStore(FileManager(pool), "lob")
    oid = store.create(bytes(17))
    with pytest.raises(FileError):
        store.write_at(oid, at, b"x" * size)
    assert store.read(oid) == bytes(17)
