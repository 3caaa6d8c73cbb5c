"""Ablation abl6 — the per-cell §4.1 loop vs the composed-table kernel.

``scan_chunk_range`` keeps the address loop exactly as the paper's
pseudo-code reads (``"interpreted"``) beside the numpy kernel every
query runs (``"vectorized"``).  This ablation scans every chunk of the
Query 1 array through each, from a cold pool each time.

Expected shape: identical rows and simulated I/O (the same walk reads
the same chunks); the composed-table kernel's CPU a large factor lower.
"""

import pytest

from repro.bench import ExperimentTable, bench_settings, build_cube_engine
from repro.core.consolidate import (
    ConsolidationSpec,
    ResultAccumulator,
    scan_chunk_range,
)
from repro.data import dataset1
from repro.util.stats import Timer

SETTINGS = bench_settings()
CONFIG = dataset1(SETTINGS.scale)[1]
KERNELS = ["interpreted", "vectorized"]


@pytest.fixture(scope="module")
def engine():
    return build_cube_engine(CONFIG, SETTINGS)


@pytest.fixture(scope="module")
def table():
    t = ExperimentTable(
        "abl6",
        "Query 1 scan: per-cell loop vs composed-table kernel",
        "kernel",
        expected="same rows and I/O; vectorized CPU far lower",
    )
    yield t
    t.save()


def cold_scan(engine, kernel):
    """Query 1's scan of every chunk from a cold pool through one kernel:
    ``(rows, cpu_s, sim_io_s)``."""
    array = engine.cube(CONFIG.name).array
    array.invalidate_caches()
    engine.db.cold_cache()
    before = engine.db.sim_io_seconds()
    with Timer() as timer:
        accumulator = ResultAccumulator(
            array, [ConsolidationSpec.level(f"h{d}1") for d in range(CONFIG.ndim)]
        )
        scan_chunk_range(
            array, accumulator, range(array.geometry.n_chunks), kernel
        )
        rows = accumulator.rows()
    return rows, timer.elapsed, engine.db.sim_io_seconds() - before


@pytest.mark.parametrize("kernel", KERNELS)
def test_ablation_modes(benchmark, engine, table, kernel):
    _, cpu_s, sim_io_s = benchmark.pedantic(
        lambda: cold_scan(engine, kernel), rounds=2, iterations=1
    )
    table.add_value("cpu_s", kernel, cpu_s)
    table.add_value("sim_io_s", kernel, sim_io_s)
    benchmark.extra_info["cost_s"] = cpu_s + sim_io_s


def test_modes_agree(engine):
    rows, _, sim_io_s = cold_scan(engine, "interpreted")
    kernel_rows, _, kernel_sim_io_s = cold_scan(engine, "vectorized")
    assert kernel_rows == rows
    assert kernel_sim_io_s == sim_io_s
