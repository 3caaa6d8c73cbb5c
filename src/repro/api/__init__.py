"""`repro.api`: the slicer-style JSON-over-HTTP query surface.

A logical model (named cubes, dimensions, hierarchies, measures —
:mod:`repro.api.model`) maps drilldown/cut requests onto
:class:`~repro.olap.query.ConsolidationQuery` objects; a rollup router
(:mod:`repro.api.rollup`) answers each request from the coarsest
materialized aggregate that covers it, falling back to base-cube
consolidation through the :class:`~repro.serve.service.QueryService`;
and :class:`~repro.api.server.ApiServer` exposes the whole stack over
stdlib HTTP.
"""

from repro.api.model import (
    LogicalCube,
    LogicalDimension,
    LogicalMeasure,
    LogicalModel,
    RollupDecl,
    load_model,
    model_from_dict,
)
from repro.api.rollup import RollupRouter, RouteDecision
from repro.api.server import AggregateRequest, ApiEndpoint, ApiServer

__all__ = [
    "AggregateRequest",
    "ApiEndpoint",
    "ApiServer",
    "LogicalCube",
    "LogicalDimension",
    "LogicalMeasure",
    "LogicalModel",
    "RollupDecl",
    "RollupRouter",
    "RouteDecision",
    "load_model",
    "model_from_dict",
]
