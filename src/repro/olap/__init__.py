"""The OLAP layer: data model, star-schema mapping, and the query engine.

This is the library's main public surface.  A
:class:`~repro.olap.model.CubeSchema` describes dimensions (with
hierarchies) and measures; an :class:`~repro.olap.engine.OlapEngine`
loads the data into *both* physical designs — the relational star
schema (§2.2) and the OLAP Array ADT (§2.3) — and executes
:class:`~repro.olap.query.ConsolidationQuery` objects through one of
the three backends the :mod:`~repro.olap.planner` can pick (``array``,
``starjoin``, ``bitmap``), named or chosen by ``auto`` — which first
answers from a covering declared grain (:mod:`~repro.olap.grains`).
The harness runs the paper's dominated baselines
(:mod:`repro.bench.baselines`).
"""

from repro.olap.model import CubeSchema, DimensionDef, MeasureDef
from repro.olap.query import ConsolidationQuery, SelectionPredicate
from repro.olap.backends import (
    Backend,
    BackendContext,
    available_backends,
    backend_names,
    get_backend,
)
from repro.olap.engine import OlapEngine, QueryResult
from repro.olap.planner import choose_backend
from repro.olap.sql import parse_query
from repro.olap.snowflake import SnowflakeDimension, build_snowflake_dimension

__all__ = [
    "CubeSchema",
    "DimensionDef",
    "MeasureDef",
    "ConsolidationQuery",
    "SelectionPredicate",
    "Backend",
    "BackendContext",
    "available_backends",
    "backend_names",
    "get_backend",
    "OlapEngine",
    "QueryResult",
    "choose_backend",
    "parse_query",
    "SnowflakeDimension",
    "build_snowflake_dimension",
]
