"""Seeded op lists ("slots") for the four workloads.

This module is pure: it imports nothing from ``src/`` and the seed
reaches nothing else.  A workload's op list is a *fixed multiset of
cost classes* (which dimensions are grouped / selected, at which level,
with which aggregate); the seed decides only what cannot change an op's
cost on uniform data:

- which of the three interchangeable 40-key dimensions (``dim0..2``)
  plays which role (the 100-key ``dim3`` is always itself),
- which ``hX1`` member (``AA0..AA9``) or key range a selection names,
- which existing cells the writes overwrite, and with what values,
- the order of the ops (within an epoch where caches make order matter).

That is what lets ten runs with ten seeds agree: every seed replays the
same classes, so a quantile over slots is a property of the program,
not of the draw.

An op is a JSON-ready dict:

``{"kind": "read", "group_by": [[dim, attr], ...], "where": [...],
"aggregate": agg}`` — ``where`` items are ``{"dim", "attr", "values"}``
or ``{"dim", "attr", "low", "high"}``; ``api_replay`` reads also carry
``"method"`` and, for the key-grain/avg tail, ``"tail": true``;

``{"kind": "write", "keys": [k0, k1, k2, k3], "value": v}`` — always an
overwrite of an existing cell.  The last burst of a pass restores the
original values, so every pass sees the same data at the same slot.
"""

from __future__ import annotations

import random

WORKLOADS = ("scan_cold", "select_cold", "serve_rw", "api_replay")

#: aggregates in the order templates cycle through them
AGGREGATES = ("sum", "min", "max", "avg", "count")

# -- templates ----------------------------------------------------------------
# A role is "a"/"b"/"c" (the interchangeable dims) or "D" (dim3); a level
# is 0 (key), 1 (hX1) or 2 (hX2).

#: scan_cold: 24 full-cube consolidations, 6 per group-by arity
_SCAN_TEMPLATES = (
    ("a1", "sum"), ("D1", "max"), ("a2", "count"),
    ("D2", "avg"), ("b1", "min"), ("D1", "sum"),
    ("a1 b1", "sum"), ("a1 D1", "avg"), ("b2 c2", "max"),
    ("a1 D2", "count"), ("c1 D1", "min"), ("a2 b1", "sum"),
    ("a1 b1 c1", "sum"), ("a1 b1 D1", "max"), ("a2 b2 D2", "avg"),
    ("b1 c1 D1", "count"), ("a1 c2 D1", "min"), ("a2 b2 c2", "sum"),
    ("a1 b1 c1 D1", "sum"), ("a1 b1 c1 D1", "avg"), ("a2 b2 c2 D2", "count"),
    ("a1 b1 c1 D1", "max"), ("a1 b1 c2 D2", "min"), ("a2 b2 c2 D2", "sum"),
)

#: select_cold: (selected roles, slots).  Selectivity is 10^-k; the
#: planner sends k=4 to bitmap + fact file and the rest to the array.
#: Counts are chosen so p50 sits inside the k=2 class and p90 inside
#: the k=1 class, away from class boundaries.
_SELECT_CLASSES = (
    ("a", 7), ("D", 7),
    ("a b", 10), ("a D", 10),
    ("a b c", 9), ("a b D", 9),
    ("a b c D", 28),
)

#: serve_rw: 16 distinct queries (6 carry one selection) and how often
#: each is read per epoch (zipf-like, sums to 50)
_SERVE_TEMPLATES = (
    ("a1", "sum", None), ("a1 b1", "sum", None), ("D1", "max", None),
    ("a2 b2", "count", None), ("a1 b1 c1 D1", "sum", None),
    ("a1 D1", "avg", None), ("b1 c1", "min", None),
    ("a2 b2 c2 D2", "sum", None), ("a1 b1 D1", "max", None),
    ("c2 D2", "count", None),
    ("a1 b1", "sum", "c"), ("D1", "sum", "a"), ("a1", "max", "D"),
    ("a1 b1 c1", "sum", "D"), ("b2 D2", "avg", "a"), ("a1 D1", "min", "b"),
)
_SERVE_FREQUENCIES = (12, 7, 5, 4, 3, 3, 2, 2, 2, 2, 2, 2, 1, 1, 1, 1)
SERVE_EPOCHS = 2
SERVE_BURST = 4

#: api_replay, per epoch of 50 requests: 31 hot drilldowns and 13 cuts a
#: rollup grain covers, 6 key-grain / avg requests none can.  (role
#: spec, aggregate, cut, method, repeats); a role without a level digit
#: takes the model's default (coarsest) level.
_API_HOT = (
    ("a", "sum", None, "GET", 13),
    ("a1 b1", "sum", None, "GET", 6),
    ("b c", "sum", None, "GET", 4),
    ("D1", "max", None, "GET", 4),
    ("a1 b", "sum", None, "POST", 4),
)
_API_CUT = (
    ("a1", "sum", ("b", 1, "in2"), "GET", 4),
    ("c", "sum", ("D", 2, "h2range"), "GET", 3),
    ("b1", "min", ("a", 2, "in2"), "POST", 3),
    ("a D", "sum", ("a", 1, "eq"), "GET", 3),
)
_API_TAIL = (
    ("D0", "sum", ("D", 0, "keys15"), "GET", 2),
    ("a0", "sum", ("b", 1, "eq"), "GET", 2),
    ("a", "avg", ("D", 0, "keys25"), "GET", 2),
)
API_EPOCHS = 2


# -- helpers ------------------------------------------------------------------


def _attr(dim: int, level: int) -> str:
    return f"d{dim}" if level == 0 else f"h{dim}{level}"


class _Roles:
    """The seeded role → dimension assignment."""

    def __init__(self, rng: random.Random, dim_sizes, shuffle: bool = True):
        order = [0, 1, 2]
        if shuffle:
            rng.shuffle(order)
        self._dims = {"a": order[0], "b": order[1], "c": order[2], "D": 3}
        self._sizes = tuple(dim_sizes)

    def dim(self, role: str) -> int:
        return self._dims[role]

    def group_by(self, spec: str, default_level: int = 1) -> list[list[str]]:
        """``"a1 D2"`` → ``[["dim0", "h01"], ["dim3", "h32"]]``, in cube
        dimension order (what the engine emits without re-sorting)."""
        pairs = []
        for item in spec.split():
            level = int(item[1]) if len(item) > 1 else default_level
            pairs.append((self.dim(item[0]), level))
        pairs.sort()
        return [[f"dim{d}", _attr(d, level)] for d, level in pairs]

    def members(self, role: str) -> int:
        """How many ``hX1`` members the role's dimension has (``hX1`` is
        ``key % 10``, so a dimension shorter than 10 keys has fewer)."""
        return min(10, self._sizes[self.dim(role)])


def _equals(roles: _Roles, rng: random.Random, role: str) -> dict:
    d = roles.dim(role)
    member = f"AA{rng.randrange(roles.members(role))}"
    return {"dim": f"dim{d}", "attr": _attr(d, 1), "values": [member]}


def _read(group_by, where, aggregate, **extra) -> dict:
    op = {
        "kind": "read",
        "group_by": group_by,
        "where": where,
        "aggregate": aggregate,
    }
    op.update(extra)
    return op


def _pick_cells(rng: random.Random, cells, count: int) -> list[int]:
    """Row numbers of ``count`` existing cells in distinct chunks."""
    chosen: list[int] = []
    chunks: set[int] = set()
    while len(chosen) < count:
        row = rng.randrange(cells.n_rows)
        chunk = cells.chunk_of(row)
        if chunk not in chunks:
            chunks.add(chunk)
            chosen.append(row)
    return chosen


def _write(cells, row: int, value: int) -> dict:
    return {"kind": "write", "keys": cells.keys_of(row), "value": value}


def _other_value(rng: random.Random, cells, row: int) -> int:
    """A measure value different from the cell's original one."""
    original = cells.value_of(row)
    value = rng.randrange(1, 101)
    return value if value != original else value % 100 + 1


# -- the four generators --------------------------------------------------------


def scan_cold_ops(seed: int, cells) -> list[dict]:
    rng = random.Random(seed)
    roles = _Roles(rng, cells.dim_sizes)
    ops = [
        _read(roles.group_by(spec), [], aggregate)
        for spec, aggregate in _SCAN_TEMPLATES
    ]
    rng.shuffle(ops)
    return ops


def select_cold_ops(seed: int, cells) -> list[dict]:
    rng = random.Random(seed)
    roles = _Roles(rng, cells.dim_sizes)
    ops = []
    for spec, count in _SELECT_CLASSES:
        selected = spec.split()
        group_by = roles.group_by(" ".join(r + "1" for r in selected))
        for i in range(count):
            where = [_equals(roles, rng, role) for role in selected]
            where.sort(key=lambda w: w["dim"])
            ops.append(_read(group_by, where, AGGREGATES[i % len(AGGREGATES)]))
    rng.shuffle(ops)
    return ops


def serve_rw_ops(seed: int, cells) -> list[dict]:
    rng = random.Random(seed)
    roles = _Roles(rng, cells.dim_sizes)
    queries = []
    for spec, aggregate, selected in _SERVE_TEMPLATES:
        where = [_equals(roles, rng, selected)] if selected else []
        queries.append(_read(roles.group_by(spec), where, aggregate))
    rng.shuffle(queries)  # which query gets which popularity rank
    rows = _pick_cells(rng, cells, SERVE_BURST)
    ops: list[dict] = []
    for epoch in range(SERVE_EPOCHS):
        reads = [
            dict(query)
            for query, times in zip(queries, _SERVE_FREQUENCIES)
            for _ in range(times)
        ]
        rng.shuffle(reads)
        ops.extend(reads)
        last = epoch == SERVE_EPOCHS - 1
        for row in rows:
            value = (
                cells.value_of(row) if last else _other_value(rng, cells, row)
            )
            ops.append(_write(cells, row, value))
    return ops


def _api_cut(roles: _Roles, rng: random.Random, cut, used: set) -> dict:
    role, level, shape = cut
    if shape == "eq":
        return _equals(roles, rng, role)
    d = roles.dim(role)
    where = {"dim": f"dim{d}", "attr": _attr(d, level)}
    if shape == "in2":
        prefix = "AA" if level == 1 else "BB"
        limit = roles.members(role) if level == 1 else 5
        first = rng.randrange(limit)
        where["values"] = [f"{prefix}{first}", f"{prefix}{(first + 1) % limit}"]
    elif shape == "h2range":
        low = rng.randrange(3)
        where["low"], where["high"] = f"BB{low}", f"BB{low + 2}"
    else:  # "keysN": a chunk-aligned N-key range on dim3, distinct per pass
        width = int(shape[4:])
        while True:
            low = 10 * rng.randrange(10 - width // 10)
            if (shape, low) not in used:
                used.add((shape, low))
                break
        where["low"], where["high"] = low, low + width - 1
    return where


def api_replay_ops(seed: int, cells) -> list[dict]:
    rng = random.Random(seed)
    # the model's rollup grains name dimensions (prod_store is dim0 x
    # dim1, time_mid is dim2 x dim3), so here the roles cannot rotate
    # without moving requests between grains of different sizes
    roles = _Roles(rng, cells.dim_sizes, shuffle=False)
    row = _pick_cells(rng, cells, 1)[0]
    used: set = set()
    ops: list[dict] = []
    for epoch in range(API_EPOCHS):
        reads = []
        for templates in (_API_HOT, _API_CUT, _API_TAIL):
            tail = templates is _API_TAIL
            for spec, aggregate, cut, method, repeats in templates:
                group_by = roles.group_by(spec, default_level=2)
                for _ in range(repeats):
                    where = [_api_cut(roles, rng, cut, used)] if cut else []
                    reads.append(
                        _read(group_by, where, aggregate, method=method, tail=tail)
                    )
        rng.shuffle(reads)
        ops.extend(reads)
        last = epoch == API_EPOCHS - 1
        value = cells.value_of(row) if last else _other_value(rng, cells, row)
        ops.append(_write(cells, row, value))
    return ops


_GENERATORS = {
    "scan_cold": scan_cold_ops,
    "select_cold": select_cold_ops,
    "serve_rw": serve_rw_ops,
    "api_replay": api_replay_ops,
}


def make_ops(workload: str, seed: int, cells) -> list[dict]:
    """The op list of one pass over the cube ``cells`` describes (its
    ``dim_sizes`` bound the members a selection may name; the writing
    workloads also draw their target cells from it)."""
    if workload not in _GENERATORS:
        raise ValueError(
            f"unknown workload {workload!r}; expected one of {WORKLOADS}"
        )
    return _GENERATORS[workload](seed, cells)
