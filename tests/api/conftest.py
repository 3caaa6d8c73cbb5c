"""Shared fixtures for the HTTP query-API tests: one small cube, its
logical model, and an endpoint/service stack."""

import json
import urllib.error
import urllib.request

import pytest

from repro.api.model import model_from_dict
from repro.api.server import ApiEndpoint, ApiServer
from repro.bench import bench_settings, build_cube_engine
from repro.data import SyntheticCubeConfig
from repro.errors import PermanentError
from repro.olap import ConsolidationQuery
from repro.serve import QueryService

CONFIG = SyntheticCubeConfig(
    name="apicube",
    dim_sizes=(6, 6, 10),
    n_valid=180,
    chunk_shape=(3, 3, 5),
    fanout1=3,
    fanout2=2,
    seed=11,
)

#: logical model bound to the test cube; hierarchies finest → coarsest
MODEL_DOC = {
    "cubes": [
        {
            "name": "sales",
            "label": "API test cube",
            "cube": CONFIG.name,
            "dimensions": [
                {"name": "dim0", "hierarchy": ["d0", "h01", "h02"]},
                {"name": "dim1", "hierarchy": ["d1", "h11", "h12"]},
                {"name": "dim2", "hierarchy": ["d2", "h21", "h22"]},
            ],
            "measures": [{"name": "volume"}],
            "rollups": [
                {
                    "name": "coarse",
                    "grain": {"dim0": "h02", "dim1": "h12", "dim2": "h22"},
                },
                {"name": "mid01", "grain": {"dim0": "h01", "dim1": "h11"}},
            ],
        }
    ]
}


def fresh_model():
    return model_from_dict(MODEL_DOC)


def fresh_engine(config=CONFIG):
    return build_cube_engine(config, bench_settings("small"))


def degrade(service, monkeypatch):
    """Degrade the test cube as a storage fault does: a service miss
    whose engine run fails for good."""
    miss = ConsolidationQuery.build(CONFIG.name, group_by={"dim0": "h02"})
    with monkeypatch.context() as patch:
        patch.setattr(service.engine, "query", _broken_engine)
        with pytest.raises(PermanentError):
            service.execute(miss, "array")
    assert service.is_degraded(CONFIG.name)


def _broken_engine(*args, **kwargs):
    raise PermanentError("injected engine fault")


@pytest.fixture
def engine():
    """A fresh engine per test — write tests mutate cube state."""
    return fresh_engine()


@pytest.fixture
def stack(engine):
    """(engine, service, endpoint) with the refresh worker stopped on
    teardown."""
    service = QueryService(engine)
    endpoint = ApiEndpoint(engine, service, fresh_model())
    yield engine, service, endpoint
    endpoint.close()
    service.close()


@pytest.fixture
def server(stack):
    engine, service, endpoint = stack
    with ApiServer(endpoint) as srv:
        yield engine, service, endpoint, srv


def http_get(url):
    """``(status, JSON body)`` of one GET, an error status included."""
    try:
        with urllib.request.urlopen(url, timeout=30) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def payload_cells(payload):
    """A response's cells as sorted ``(drilldown values..., measures...)``."""
    labels = [f"{d}.{a}" for d, a in payload["drilldown"]] + payload["measures"]
    return sorted(tuple(cell[label] for label in labels) for cell in payload["cells"])


def warm_rollups(endpoint):
    """Materialize every declared rollup for sum so routed requests hit."""
    cube = endpoint.model.cube("sales")
    for rollup in cube.rollups:
        endpoint.router.rows_for(cube, rollup, "sum")
