"""repro — Array-based evaluation of multi-dimensional OLAP queries.

A full reproduction of Zhao, Ramasamy, Naughton & Tufte, *"Array-Based
Evaluation of Multi-Dimensional Queries in Object-Relational Database
Systems"* (ICDE 1998): the OLAP Array ADT with chunk-offset
compression, the relational star-schema baselines (Starjoin operator,
fact file, bitmap join indices), and a shared SHORE-like storage
substrate, all in Python.

Quick start::

    from repro import (CubeSchema, DimensionDef, OlapEngine,
                       ConsolidationQuery)

    schema = CubeSchema("sales", dimensions=(
        DimensionDef("product", key="pid", levels=(("type", "str:8"),)),
        DimensionDef("store", key="sid", levels=(("city", "str:8"),)),
    ))
    engine = OlapEngine()
    engine.load_cube(schema, dimension_rows={...}, fact_rows=[...])
    result = engine.query(ConsolidationQuery.build(
        "sales", group_by={"product": "type", "store": "city"}))

See ``examples/`` for runnable programs and ``benchmarks/`` for the
paper's figures.
"""

from repro.aggregates import get_aggregate
from repro.core import (
    ChunkGeometry,
    ConsolidationSpec,
    OLAPArray,
    Selection,
    build_olap_array,
    compute_cube,
    consolidate,
    consolidate_with_selection,
)
from repro.errors import ReproError
from repro.olap import (
    Backend,
    ConsolidationQuery,
    CubeSchema,
    DimensionDef,
    MeasureDef,
    OlapEngine,
    QueryResult,
    SelectionPredicate,
    parse_query,
)
from repro.relational import Database, Schema
from repro.serve import QueryService, ServiceConfig

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "ReproError",
    "get_aggregate",
    # core ADT
    "ChunkGeometry",
    "OLAPArray",
    "build_olap_array",
    "ConsolidationSpec",
    "Selection",
    "consolidate",
    "consolidate_with_selection",
    "compute_cube",
    # OLAP layer
    "CubeSchema",
    "DimensionDef",
    "MeasureDef",
    "ConsolidationQuery",
    "SelectionPredicate",
    "Backend",
    "OlapEngine",
    "QueryResult",
    "parse_query",
    # relational layer
    "Database",
    "Schema",
    # serving layer
    "QueryService",
    "ServiceConfig",
]
