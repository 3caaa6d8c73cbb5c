"""Bulk loader: dimension data + fact tuples → a persisted OLAP array.

The loader assigns array indices in dimension-table order and works a
column at a time: key columns become array indices, cells become
``(chunk, offset)`` pairs sorted by chunk then offset (giving §3.3's
sorted chunk payloads and §4.2's chunk-number disk order).  Only once
that is checked does it encode each chunk with the chosen codec and
write the meta directory, dimension B-trees, attribute B-trees and
IndexToIndex arrays.
"""

from __future__ import annotations

import json
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from repro.core.chunking import ChunkGeometry
from repro.core.compression import get_codec
from repro.core.dimension_index import DimensionIndex
from repro.core.index_to_index import IndexToIndex
from repro.core.meta import NO_CHUNK, ChunkDirectory
from repro.core.olap_array import OLAPArray
from repro.errors import ArrayError, DimensionError
from repro.index.btree import BTree
from repro.storage.large_object import LargeObjectStore
from repro.storage.page_file import FileManager
from repro.util.records import (
    SLAB_ROWS,
    as_column,
    fact_columns,
    key_positions,
    narrowest,
)


@dataclass
class DimensionData:
    """One dimension's contents for the loader.

    ``keys`` (distinct) defines the array-index order; ``attributes`` maps each
    hierarchy attribute name to its per-key values (aligned with
    ``keys``), coarsest last — e.g. ``{"h01": [...], "h02": [...]}``.
    """

    name: str
    keys: list
    attributes: dict[str, list] = field(default_factory=dict)

    def __post_init__(self):
        if len(set(self.keys)) != len(self.keys):
            raise DimensionError(f"dimension {self.name!r} has duplicate keys")
        for attr, values in self.attributes.items():
            if len(values) != len(self.keys):
                raise DimensionError(
                    f"dimension {self.name!r}: attribute {attr!r} has "
                    f"{len(values)} values for {len(self.keys)} keys"
                )

    def indices_of(self, column: np.ndarray) -> np.ndarray:
        """The array index of every key in a fact column
        (:func:`~repro.util.records.key_positions`): as in a dict,
        ``"1"`` is not ``1``.  The indices come in the narrowest signed
        dtype that holds the key count: one byte a row up to 127 keys."""
        indices = key_positions(as_column(self.keys), column)
        unknown = indices < 0
        if unknown.any():
            raise DimensionError(
                "fact tuple references unknown dimension key "
                f"{column[unknown][0].item()!r}"
            )
        return indices


def fact_coords(
    dimensions: list[DimensionData], columns: list[np.ndarray]
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Fact columns as per-dimension array indices, and the measures."""
    if columns and len(columns) <= len(dimensions):
        raise ArrayError(
            f"fact tuples need {len(dimensions)} keys plus at least one measure"
        )
    coords = [d.indices_of(column) for d, column in zip(dimensions, columns)]
    return coords, columns[len(dimensions):]


def build_olap_array(
    fm: FileManager,
    name: str,
    dimensions: list[DimensionData],
    facts,
    chunk_shape: tuple[int, ...],
    codec: str = "chunk-offset",
    dtype: str = "int64",
    measure_names: list[str] | None = None,
) -> OLAPArray:
    """Build and persist an :class:`OLAPArray` from fact tuples.

    ``facts`` holds ``(key_0, ..., key_{n-1}, m_1, ..., m_p)`` rows, as
    tuples or array-backed (:func:`~repro.util.records.fact_columns`).
    The array shape is the per-dimension distinct key counts; an unknown
    key (:class:`DimensionError`) or two rows addressing the same cell
    (:class:`ArrayError`) reject the load before anything is created.
    """
    coords, measures = fact_coords(dimensions, fact_columns(facts))
    return plan_olap_array(
        dimensions, coords, measures, chunk_shape, codec, dtype, measure_names
    )(fm, name)


def plan_olap_array(
    dimensions: list[DimensionData],
    coords: list[np.ndarray],
    measures: list[np.ndarray],
    chunk_shape: tuple[int, ...],
    codec: str = "chunk-offset",
    dtype: str = "int64",
    measure_names: list[str] | None = None,
) -> Callable[[FileManager, str], OLAPArray]:
    """Check a load (:func:`fact_coords`' columns) and return its second
    half, ``store(fm, name)``, which only creates and writes."""
    if not dimensions:
        raise DimensionError("an array needs at least one dimension")
    codec_obj = get_codec(codec)
    geometry = ChunkGeometry(tuple(len(d.keys) for d in dimensions), chunk_shape)
    n_measures = len(measures) or len(measure_names or ["m0"])
    if measure_names is None:
        measure_names = [f"m{i}" for i in range(n_measures)]
    if len(measure_names) != n_measures:
        raise ArrayError(
            f"{len(measure_names)} measure names for {n_measures} measures"
        )
    if any(m.dtype.kind == "U" for m in measures):
        raise ArrayError("measures must be numbers")
    # one sort key per cell, chunk-major; equal keys are duplicate
    # cells, so an unstable sort still yields the one order.  The plan
    # keeps the order as a row permutation, each cell's offset in its
    # chunk and the chunk bounds; the values stay in the measure columns
    # until their chunk is encoded.
    rows = len(coords[0]) if coords else 0
    cells = geometry.cell_keys(coords) if coords else np.zeros(0, np.int64)
    order = np.argsort(cells)
    firsts = np.arange(geometry.n_chunks + 1) * geometry.chunk_cells
    bounds = np.searchsorted(cells, firsts, sorter=order).tolist()
    offsets = np.empty(rows, np.int32)
    last = -1  # below every key
    for start in range(0, rows, SLAB_ROWS):
        block = cells.take(order[start : start + SLAB_ROWS])
        same = np.flatnonzero(np.diff(block, prepend=last) == 0)
        if same.size:
            raise ArrayError(
                "duplicate fact tuples address one cell (chunk {}, offset {})".format(
                    *divmod(int(block[same[0]]), geometry.chunk_cells)
                )
            )
        offsets[start : start + len(block)] = block % geometry.chunk_cells
        last = block[-1]
    del cells
    order = order.astype(narrowest(rows, signed=False), copy=False)
    value_dtype = np.dtype(dtype)

    def store(fm: FileManager, name: str) -> OLAPArray:
        # Stores first: the directory's pages are fully allocated up
        # front so the chunk objects that follow land contiguously in
        # chunk order.
        chunk_store = LargeObjectStore(fm, f"{name}.chunks")
        aux = LargeObjectStore(fm, f"{name}.aux")
        directory = ChunkDirectory.create(fm, f"{name}.dir", geometry.n_chunks)
        dim_indexes = [
            DimensionIndex.build(fm, aux, f"{name}.dim{i}.key", d.keys)
            for i, d in enumerate(dimensions)
        ]
        entries = [(NO_CHUNK, 0, 0)] * geometry.n_chunks
        for chunk_no, (start, stop) in enumerate(zip(bounds, bounds[1:])):
            if start == stop:
                continue
            picked = order[start:stop]
            values = np.empty((stop - start, n_measures), value_dtype)
            for i, measure in enumerate(measures):  # each cast alone: no int via float
                values[:, i] = measure[picked]
            payload = codec_obj.encode(
                offsets[start:stop], values, geometry.chunk_cells, dtype
            )
            oid = chunk_store.create(payload)
            directory.set_entry(chunk_no, oid, len(payload), stop - start)
            entries[chunk_no] = (oid, len(payload), stop - start)

        # -- attribute B-trees and IndexToIndex arrays ------------------------------
        meta_dims = []
        for i, (data, dim_index) in enumerate(zip(dimensions, dim_indexes)):
            attrs_meta = {}
            for attr, attr_values in data.attributes.items():
                BTree.build(
                    fm,
                    f"{name}.dim{i}.{attr}.idx",
                    zip(attr_values, range(len(attr_values))),
                )
                i2i = IndexToIndex.build(list(attr_values))
                attrs_meta[attr] = {"i2i_oid": aux.create(i2i.to_blob())}
            meta_dims.append(
                {"name": data.name, "rev_oid": dim_index.rev_oid, "attrs": attrs_meta}
            )

        meta = {
            "name": name,
            "shape": list(geometry.shape),
            "chunk_shape": list(geometry.chunk_shape),
            "dtype": dtype,
            "n_measures": n_measures,
            "measure_names": measure_names,
            "codec": codec,
            "dims": meta_dims,
        }
        directory.set_array_meta_oid(aux.create(json.dumps(meta).encode("utf-8")))
        return OLAPArray(fm, name, meta, entries)

    return store
