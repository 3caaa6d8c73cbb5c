"""Synthetic OLAP cubes matching §5.1/§5.4.

The test schema is::

    fact (d0, d1, d2, d3, volume)
    dimX (dX, hX1, hX2)        -- hX1/hX2 uniform and hierarchical

``hX1`` takes ``fanout1`` distinct values (``AA0``, ``AA1``, ...),
``hX2`` takes ``fanout2`` distinct values functionally determined by
``hX1`` (a proper hierarchy, key → hX1 → hX2).  Valid cells are drawn
uniformly without replacement from the logical cell space, exactly the
paper's uniform data; volumes are uniform small integers.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from repro.errors import DataGenError
from repro.olap.model import CubeSchema, DimensionDef, MeasureDef


@dataclass(frozen=True)
class SyntheticCubeConfig:
    """Shape and content parameters of one synthetic cube."""

    name: str
    dim_sizes: tuple[int, ...]
    n_valid: int
    chunk_shape: tuple[int, ...]
    fanout1: int = 10
    fanout2: int = 5
    seed: int = 1997
    measure_max: int = 100

    def __post_init__(self):
        if any(s <= 0 for s in self.dim_sizes):
            raise DataGenError(f"dimension sizes must be positive: {self.dim_sizes}")
        if len(self.chunk_shape) != len(self.dim_sizes):
            raise DataGenError("chunk shape rank must match dimension count")
        if not 0 <= self.n_valid <= self.logical_cells:
            raise DataGenError(
                f"n_valid={self.n_valid} outside [0, {self.logical_cells}]"
            )
        if self.fanout1 <= 0 or self.fanout2 <= 0:
            raise DataGenError("fanouts must be positive")

    @property
    def ndim(self) -> int:
        return len(self.dim_sizes)

    @property
    def logical_cells(self) -> int:
        return math.prod(self.dim_sizes)

    @property
    def density(self) -> float:
        """Fraction of valid cells (the paper's ρ)."""
        return self.n_valid / self.logical_cells


def h1_value(config: SyntheticCubeConfig, key: int) -> str:
    """The hX1 attribute of a dimension key (uniform over fanout1 values)."""
    return f"AA{key % config.fanout1}"


def h2_value(config: SyntheticCubeConfig, key: int) -> str:
    """The hX2 attribute (functionally determined by hX1)."""
    return f"BB{(key % config.fanout1) % config.fanout2}"


def generate_dimension_rows(
    config: SyntheticCubeConfig,
) -> dict[str, list[tuple]]:
    """Rows for every dimension table: ``(dX, hX1, hX2)``."""
    return {
        f"dim{d}": [
            (key, h1_value(config, key), h2_value(config, key))
            for key in range(size)
        ]
        for d, size in enumerate(config.dim_sizes)
    }


def _sample_distinct_cells(
    rng: np.random.Generator, total: int, count: int
) -> np.ndarray:
    """``count`` distinct linear cell indices, memory-frugally.

    Sampling with replacement + dedup (re-drawing the shortfall) avoids
    materializing a permutation of the whole (possibly 64M-cell)
    logical space.  The dedup is a sort and a neighbour compare: numpy's
    own unique, same result, is 50x slower on numpy 2.4 (DESIGN §11).
    """
    if count == total:
        return np.arange(total, dtype=np.int64)
    chosen = np.empty(0, dtype=np.int64)
    while chosen.size < count:
        need = count - chosen.size
        draw = rng.integers(0, total, size=int(need * 1.1) + 16, dtype=np.int64)
        merged = np.sort(np.concatenate([chosen, draw]))
        chosen = merged[np.append(True, merged[1:] != merged[:-1])]
    return rng.permutation(chosen)[:count]


class FactRows(Sequence):
    """Fact tuples over one read-only int64 table.

    Reads as a list of tuples of Python ints (index, slice, iterate,
    ``==`` a list); loads as the table (``__array__``, no copy).
    """

    def __init__(self, table: np.ndarray):
        self._table = table
        table.setflags(write=False)

    def __len__(self) -> int:
        return len(self._table)

    def __getitem__(self, index):
        picked = self._table[index].tolist()
        if isinstance(index, slice):
            return [tuple(row) for row in picked]
        return tuple(picked)

    def __iter__(self) -> Iterator[tuple]:
        for start in range(0, len(self), 4096):  # a slice at a time: 5x a row at a time
            yield from self[start : start + 4096]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (list, FactRows)):
            return list(self) == list(other)
        return NotImplemented

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        return np.array(self._table, dtype=dtype, copy=copy)


def generate_fact_rows(config: SyntheticCubeConfig) -> FactRows:
    """Fact tuples ``(d0, ..., dn-1, volume)`` for the valid cells: a
    list of tuples to read, columns to load (:class:`FactRows`)."""
    rng = np.random.default_rng(config.seed)
    remainder = _sample_distinct_cells(rng, config.logical_cells, config.n_valid)
    # column-major: each field is one contiguous array
    table = np.empty((config.n_valid, config.ndim + 1), dtype=np.int64, order="F")
    for d in range(config.ndim - 1, -1, -1):
        remainder, table[:, d] = np.divmod(remainder, config.dim_sizes[d])
    table[:, -1] = rng.integers(1, config.measure_max + 1, size=config.n_valid)
    return FactRows(table)


def cube_schema_for(config: SyntheticCubeConfig) -> CubeSchema:
    """The §5.1 star schema as a :class:`CubeSchema`."""
    return CubeSchema(
        name=config.name,
        dimensions=tuple(
            DimensionDef(
                f"dim{d}",
                key=f"d{d}",
                key_type="int32",
                levels=((f"h{d}1", "str:8"), (f"h{d}2", "str:8")),
            )
            for d in range(config.ndim)
        ),
        measures=(MeasureDef("volume", "int64"),),
    )
