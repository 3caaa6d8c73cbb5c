"""`repro.api`: the slicer-style JSON-over-HTTP query surface.

A logical model (named cubes, dimensions, hierarchies, measures —
:mod:`repro.api.model`) maps drilldown/cut requests onto
:class:`~repro.olap.query.ConsolidationQuery` objects, each answered by
the :class:`~repro.serve.service.QueryService`; the model's rollups are
declared as the engine's grains (:mod:`repro.api.rollup`), so the
planner answers a request one covers from the smallest such grain; and
:class:`~repro.api.server.ApiServer` exposes the whole stack over
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
