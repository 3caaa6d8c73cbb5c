"""The brute-force oracle: a fold over the generated fact rows.

It knows nothing of chunks, pools, indices or caches — only the fact
rows and dimension tables the store was loaded from, plus the writes
the driver itself has applied.  Every answer the benchmark times is
compared with :meth:`Cells.fold` (directly in the warm-up pass, by
digest in the timed passes).
"""

from __future__ import annotations

import math

import numpy as np


class Cells:
    """The cube's valid cells as arrays, with the driver's writes applied.

    ``dimension_rows[dim]`` holds ``(key, hX1, hX2)`` tuples and
    ``fact_rows`` holds ``(k0..k3, volume)`` tuples, exactly what
    ``OlapEngine.load_cube`` was given.
    """

    def __init__(self, dim_sizes, chunk_shape, dimension_rows, fact_rows):
        self.dim_sizes = tuple(dim_sizes)
        self.chunk_shape = tuple(chunk_shape)
        facts = np.asarray(fact_rows, dtype=np.int64)
        self.coords = np.ascontiguousarray(facts[:, :-1])
        self.volumes = facts[:, -1].copy()
        self.n_rows = len(facts)
        linear = np.ravel_multi_index(self.coords.T, self.dim_sizes)
        self._by_linear = np.argsort(linear)
        self._sorted_linear = linear[self._by_linear]
        #: attr name -> (labels by key position, code per key, n codes)
        self._levels: dict[str, tuple[list, np.ndarray, int]] = {}
        for d, (dim, rows) in enumerate(sorted(dimension_rows.items())):
            keys = [row[0] for row in rows]
            if keys != list(range(len(keys))):
                raise ValueError(f"{dim}: keys are not 0..n-1")
            self._levels[f"d{d}"] = (keys, np.arange(len(keys)), len(keys))
            for level in (1, 2):
                values = [row[level] for row in rows]
                labels = sorted(set(values))
                position = {label: i for i, label in enumerate(labels)}
                codes = np.array([position[v] for v in values], dtype=np.int64)
                self._levels[f"h{d}{level}"] = (labels, codes, len(labels))

    # -- what the op generators need ------------------------------------------

    def keys_of(self, row: int) -> list[int]:
        return [int(k) for k in self.coords[row]]

    def value_of(self, row: int) -> int:
        return int(self.volumes[row])

    def chunk_of(self, row: int) -> int:
        grid = tuple(
            int(k) // c for k, c in zip(self.coords[row], self.chunk_shape)
        )
        shape = tuple(
            -(-s // c) for s, c in zip(self.dim_sizes, self.chunk_shape)
        )
        return int(np.ravel_multi_index(grid, shape))

    # -- the driver's writes --------------------------------------------------

    def row_of(self, keys) -> int:
        """Row number of an existing cell (the driver only overwrites)."""
        linear = int(np.ravel_multi_index(tuple(keys), self.dim_sizes))
        at = int(np.searchsorted(self._sorted_linear, linear))
        if at >= self.n_rows or self._sorted_linear[at] != linear:
            raise KeyError(f"no valid cell at {tuple(keys)}")
        return int(self._by_linear[at])

    def write(self, keys, value: int) -> None:
        self.volumes[self.row_of(keys)] = value

    # -- the fold --------------------------------------------------------------

    def fold(self, op: dict) -> list[tuple]:
        """Sorted ``(group values..., aggregate)`` rows for one read op."""
        mask = None
        for where in op["where"]:
            d = int(where["dim"][3:])
            labels, codes, _ = self._levels[where["attr"]]
            if "values" in where:
                allowed = np.array([label in where["values"] for label in labels])
            else:
                allowed = np.array(
                    [where["low"] <= label <= where["high"] for label in labels]
                )
            hit = allowed[codes][self.coords[:, d]]
            mask = hit if mask is None else mask & hit
        if mask is None:
            coords, volumes = self.coords, self.volumes
        else:
            coords, volumes = self.coords[mask], self.volumes[mask]
        combined = np.zeros(len(volumes), dtype=np.int64)
        radices = []
        for dim, attr in op["group_by"]:
            _, codes, n_codes = self._levels[attr]
            combined = combined * n_codes + codes[coords[:, int(dim[3:])]]
            radices.append(n_codes)
        groups, inverse = np.unique(combined, return_inverse=True)
        counts = np.bincount(inverse, minlength=len(groups))
        aggregate = op["aggregate"]
        if aggregate == "count":
            values = counts.tolist()
        elif aggregate in ("sum", "avg"):
            sums = np.zeros(len(groups), dtype=np.int64)
            np.add.at(sums, inverse, volumes)
            if aggregate == "sum":
                values = sums.tolist()
            else:
                values = [s / c for s, c in zip(sums.tolist(), counts.tolist())]
        elif aggregate in ("min", "max"):
            order = np.argsort(inverse, kind="stable")
            starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
            reduce = np.minimum if aggregate == "min" else np.maximum
            values = (
                reduce.reduceat(volumes[order], starts).tolist()
                if len(groups)
                else []
            )
        else:
            raise ValueError(f"oracle has no aggregate {aggregate!r}")
        rows = []
        for group, value in zip(groups.tolist(), values):
            parts = []
            for (_, attr), radix in zip(
                reversed(op["group_by"]), reversed(radices)
            ):
                group, code = divmod(group, radix)
                parts.append(self._levels[attr][0][code])
            rows.append(tuple(reversed(parts)) + (value,))
        rows.sort()
        return rows


def rows_equal(got: list[tuple], expected: list[tuple]) -> bool:
    """Row-multiset equality; aggregates compare to 1e-9 relative (the
    engine's ``avg`` is a float division of exact integer sums)."""
    if len(got) != len(expected):
        return False
    for a, b in zip(sorted(got), expected):
        if a[:-1] != b[:-1]:
            return False
        if not math.isclose(a[-1], b[-1], rel_tol=1e-9, abs_tol=0.0):
            return False
    return True


def digest(rows: list[tuple]) -> tuple:
    """A cheap fingerprint of an answer already checked against the
    oracle: timed passes must reproduce it."""
    if not rows:
        return (0,)
    ordered = sorted(rows)
    return (
        len(ordered),
        ordered[0][:-1],
        ordered[-1][:-1],
        round(math.fsum(row[-1] for row in ordered), 6),
    )
