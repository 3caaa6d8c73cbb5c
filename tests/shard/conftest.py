"""Shared synthetic cube for the shard-execution tests: the OLAP tests'.

The cube has 8 chunks (8x6x10 cells in 4x3x5 chunks -> a 2x2x2 chunk
grid), deliberately *not* divisible by every shard count the oracle
matrix uses (7 in particular), so remainder assignment is always
exercised.
"""

import pytest

from tests.olap.conftest import CONFIG, build_loaded, engine, fact_rows  # noqa: F401


@pytest.fixture(scope="package")
def loaded():
    state = build_loaded()
    yield state
    state[0].close_shards()
