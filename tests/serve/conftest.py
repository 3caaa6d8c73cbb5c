"""Small cubes + engines shared by the serving-layer tests."""

import threading
import time

import pytest

from repro.bench import bench_settings, build_cube_engine
from repro.data import SyntheticCubeConfig
from repro.obs.tracing import trace_context

CONFIG = SyntheticCubeConfig(
    name="served",
    dim_sizes=(6, 6, 10),
    n_valid=180,
    chunk_shape=(3, 3, 5),
    fanout1=3,
    fanout2=2,
    seed=11,
)


def fresh_engine(config=CONFIG):
    return build_cube_engine(config, bench_settings("small"))


def start(service, query, ctx=None):
    """``service.execute(query)`` on a new thread under trace context
    ``ctx``; returns the thread and the list its answer lands in."""
    answers = []

    def run():
        with trace_context(ctx):
            answers.append(service.execute(query))

    thread = threading.Thread(target=run)
    thread.start()
    return thread, answers


def wait_until(predicate, timeout_s=10.0):
    deadline = time.monotonic() + timeout_s
    while not predicate():
        assert time.monotonic() < deadline, "timed out"
        time.sleep(0.001)


@pytest.fixture
def engine():
    """A fresh engine per test — write tests mutate cube state."""
    return fresh_engine()


@pytest.fixture(scope="module")
def shared_engine():
    """One engine for the read-only tests in a module."""
    return fresh_engine()
