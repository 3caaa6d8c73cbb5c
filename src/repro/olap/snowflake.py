"""The snowflake schema: §2.2's normalized star variant.

A snowflake schema replaces each wide dimension table with a chain of
normalized tables, one per hierarchy level::

    dim.base(key, l1_id)
    dim.l1(l1_id, l1_value, l2_id)
    ...
    dim.lk(lk_id, lk_value)

Level ids are first-appearance ordinals of the distinct level values —
the same numbering :class:`~repro.core.index_to_index.IndexToIndex`
uses, so both physical designs stay aligned.

:class:`SnowflakeDimension` quacks like a dimension heap table
(``schema`` + ``scan()``) but reconstructs the denormalized rows by
joining the chain, reading every page through the buffer pool so the
join cost shows up in the measurements.  The engine can therefore run
every relational algorithm unchanged over a snowflaked dimension.
"""

from __future__ import annotations

from repro.errors import SchemaError
from repro.olap.model import CubeSchema, DimensionDef
from repro.relational.catalog import Database
from repro.relational.schema import Column, Schema
from repro.util.records import key_positions


def snowflake_table_names(cube: CubeSchema, dimension: str) -> list[str]:
    """Catalog names of one dimension's snowflake chain (base first)."""
    dim = cube.dimension(dimension)
    names = [f"{cube.name}.{dimension}.snow.base"]
    names += [
        f"{cube.name}.{dimension}.snow.{attr}" for attr in dim.level_names
    ]
    return names


def _distinct_ordinals(values: list) -> tuple[list[int], list]:
    """First-appearance ordinal of each value, plus the distinct list."""
    ordinals: dict = {}
    ids = [ordinals.setdefault(value, len(ordinals)) for value in values]
    return ids, list(ordinals)


class SnowflakeDimension:
    """A joined, denormalized view over one snowflaked dimension."""

    def __init__(self, dimension: DimensionDef, base, level_tables):
        self.dimension = dimension
        self.base = base
        self.level_tables = level_tables  # [(attr, HeapFile)] in order
        self.schema = Schema(
            [Column(dimension.key, dimension.key_type)]
            + [Column(name, ctype) for name, ctype in dimension.levels]
        )

    def columns(self, fields=None) -> list:
        """The denormalized ``(key, level values...)`` rows as columns,
        or only the named ``fields``, in the order given.

        The snowflake join: each level table is read whole (level tables
        are tiny), then the base table, whose level id column is followed
        down the ``(id, value[, parent id])`` chain.
        """
        chains = [table.columns() for _, table in self.level_tables]
        out = self.base.columns()
        for ids, value, *parent in chains:
            at = key_positions(ids, out.pop())
            out += [value[at], *(column[at] for column in parent)]
        out = out[: 1 + len(chains)]  # no level: the base's id column goes
        if fields is None:
            return out
        return [out[self.schema.index_of(field)] for field in fields]

    def scan(self):
        """Yield denormalized ``(key, level values...)`` rows."""
        return zip(*(column.tolist() for column in self.columns()))

    def __len__(self) -> int:
        return len(self.base)

    def size_bytes(self) -> int:
        """Footprint of the whole chain (base + every level table)."""
        return self.base.size_bytes() + sum(
            t.size_bytes() for _, t in self.level_tables
        )


def build_snowflake_dimension(
    db: Database,
    cube: CubeSchema,
    dimension: str,
    rows: list[tuple],
) -> SnowflakeDimension:
    """Normalize one dimension's rows into snowflake tables.

    ``rows`` are the denormalized ``(key, level values...)`` tuples the
    star layout would store directly.  Requires a proper hierarchy:
    each level's value must functionally determine the next level's.
    """
    dim = cube.dimension(dimension)
    n_levels = len(dim.levels)
    names = snowflake_table_names(cube, dimension)

    columns = [[row[1 + i] for row in rows] for i in range(n_levels)]
    ids = []
    distincts = []
    for level_values in columns:
        level_ids, distinct = _distinct_ordinals(level_values)
        ids.append(level_ids)
        distincts.append(distinct)

    base = db.create_heap_table(
        names[0],
        Schema([Column(dim.key, dim.key_type), Column("l1_id", "int32")]),
        extent_pages=2,
    )
    base.insert_many(
        [(row[0], ids[0][r]) for r, row in enumerate(rows)]
        if n_levels
        else [(row[0], 0) for row in rows]
    )

    level_tables = []
    for i, (attr, ctype) in enumerate(dim.levels):
        is_last = i == n_levels - 1
        if is_last:
            schema = Schema([Column("id", "int32"), Column(attr, ctype)])
        else:
            schema = Schema(
                [
                    Column("id", "int32"),
                    Column(attr, ctype),
                    Column("parent_id", "int32"),
                ]
            )
        # level tables hold one row per DISTINCT value: tiny extents
        table = db.create_heap_table(names[1 + i], schema, extent_pages=1)
        # one row per distinct value; the parent id must be functional
        parent_of: dict[int, int] = {}
        if not is_last:
            for r in range(len(rows)):
                child, parent = ids[i][r], ids[i + 1][r]
                if parent_of.setdefault(child, parent) != parent:
                    raise SchemaError(
                        f"dimension {dimension!r}: {dim.levels[i + 1][0]!r} "
                        f"is not functionally determined by {attr!r}; "
                        "cannot snowflake"
                    )
        table.insert_many(
            [
                (ordinal, value)
                if is_last
                else (ordinal, value, parent_of[ordinal])
                for ordinal, value in enumerate(distincts[i])
            ]
        )
        level_tables.append((attr, table))

    return SnowflakeDimension(dim, base, level_tables)
