"""The planner's chunk-walk estimate equals a per-chunk reference.

:func:`~repro.core.consolidate.estimate_chunk_range` prices every chunk
at once, from per-axis counts; the reference below walks the chunks one
by one through the geometry's own per-chunk arithmetic (origin, edge
extent) and applies the direction rule as its docstring states it.
Ragged geometries put edge chunks on every axis; random directories
mix missing, empty and stored chunks.
"""

import math
from types import SimpleNamespace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.chunking import ChunkGeometry
from repro.core.consolidate import (
    PROBE_STEPS_PER_STORED_CELL,
    estimate_chunk_range,
)
from repro.core.meta import NO_CHUNK


def reference(geometry, entries, chunk_range, masks):
    estimate = {
        "chunks_skipped": 0,
        "empty_chunks_skipped": 0,
        "chunks_read": 0,
        "chunk_bytes_read": 0,
        "cells_probed": 0,
    }
    scanned = 0.0
    for chunk_no in chunk_range:
        origin = geometry.chunk_origin(chunk_no)
        extent = geometry.chunk_extent(chunk_no)
        slabs = (
            None
            if masks is None
            else [int(m[o : o + e].sum()) for m, o, e in zip(masks, origin, extent)]
        )
        if slabs is not None and not all(slabs):
            estimate["chunks_skipped"] += 1
            continue
        oid, length, stored = entries[chunk_no]
        if oid == NO_CHUNK or not stored:
            estimate["empty_chunks_skipped"] += 1
            continue
        estimate["chunks_read"] += 1
        estimate["chunk_bytes_read"] += length
        if slabs is None:
            scanned += stored
            continue
        candidates = math.prod(slabs)
        if candidates * stored.bit_length() <= stored * PROBE_STEPS_PER_STORED_CELL:
            estimate["cells_probed"] += candidates
        scanned += stored * candidates / math.prod(extent)
    estimate["cells_scanned"] = round(scanned)
    return estimate


@st.composite
def priced_walks(draw):
    ndim = draw(st.integers(1, 3))
    shape = tuple(draw(st.integers(1, 9)) for _ in range(ndim))
    chunk_shape = tuple(draw(st.integers(1, size)) for size in shape)
    geometry = ChunkGeometry(shape, chunk_shape)
    entries = []
    for chunk_no in range(geometry.n_chunks):
        kind = draw(st.sampled_from(["missing", "empty", "stored"]))
        if kind == "missing":
            entries.append((NO_CHUNK, 0, 0))
        else:
            stored = 0 if kind == "empty" else draw(
                st.integers(1, geometry.valid_cells_in_chunk(chunk_no))
            )
            entries.append((chunk_no + 1, draw(st.integers(1, 4096)), stored))
    masks = draw(
        st.none()
        | st.tuples(
            *(st.lists(st.booleans(), min_size=size, max_size=size) for size in shape)
        ).map(lambda bits: [np.array(b, dtype=bool) for b in bits])
    )
    start = draw(st.integers(0, geometry.n_chunks - 1))
    stop = draw(st.integers(start, geometry.n_chunks))
    return geometry, entries, range(start, stop), masks


@settings(max_examples=300, deadline=None)
@given(priced_walks())
def test_estimate_equals_the_per_chunk_reference(walk):
    geometry, entries, chunk_range, masks = walk
    directory = np.array(entries, dtype=np.int64).reshape(-1, 3)
    array = SimpleNamespace(geometry=geometry, chunk_directory=lambda: directory)
    assert estimate_chunk_range(array, chunk_range, masks) == reference(
        geometry, entries, chunk_range, masks
    )
