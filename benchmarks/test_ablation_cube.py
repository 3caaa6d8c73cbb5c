"""Ablation abl7 — the one-pass CUBE operator vs 2ⁿ consolidations.

The paper's companion algorithm ([ZDN97]) computes all group-bys of a
cube simultaneously from the chunked array.  This ablation compares
one shared chunk scan against running a separate §4.1 consolidation per
subset (16 scans for the 4-D cube).

Expected shape: the shared scan wins by roughly the ratio of chunk
I/O + decode paid once vs 2ⁿ times.
"""

import pytest

from repro.bench import ExperimentTable, bench_settings, build_cube_engine
from repro.core import ConsolidationSpec, compute_cube, consolidate
from repro.data import dataset1
from repro.util.stats import Counters

SETTINGS = bench_settings()
CONFIG = dataset1(SETTINGS.scale)[1]
STRATEGIES = ["one_pass_cube", "separate_consolidations"]


@pytest.fixture(scope="module")
def array():
    engine = build_cube_engine(CONFIG, SETTINGS, backends=("array",))
    return engine, engine.cube(CONFIG.name).array


@pytest.fixture(scope="module")
def table():
    t = ExperimentTable(
        "abl7",
        "CUBE: one shared scan vs separate consolidations per subset",
        "strategy",
        expected="one pass pays chunk I/O + decode once instead of 2^n times",
    )
    yield t
    t.save()


def specs(array):
    return [ConsolidationSpec.level(f"h{d}1") for d in range(4)]


def all_subset_specs(array):
    from itertools import combinations

    ndim = array.geometry.ndim
    out = []
    for size in range(ndim + 1):
        for subset in combinations(range(ndim), size):
            out.append(
                [
                    ConsolidationSpec.level(f"h{d}1")
                    if d in subset
                    else ConsolidationSpec.drop()
                    for d in range(ndim)
                ]
            )
    return out


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_ablation_cube(benchmark, array, table, strategy):
    engine, olap_array = array

    def run_one_pass():
        engine.db.cold_cache()
        olap_array.invalidate_caches()
        io_before = engine.db.sim_io_seconds()
        counters = Counters()
        compute_cube(olap_array, specs(olap_array), counters=counters)
        return counters, engine.db.sim_io_seconds() - io_before

    def run_separate():
        # sixteen independent queries, each cold (the paper's protocol)
        counters = Counters()
        sim_io = 0.0
        for subset_specs in all_subset_specs(olap_array):
            engine.db.cold_cache()
            olap_array.invalidate_caches()
            io_before = engine.db.sim_io_seconds()
            consolidate(olap_array, subset_specs, counters=counters)
            sim_io += engine.db.sim_io_seconds() - io_before
        return counters, sim_io

    run = run_one_pass if strategy == "one_pass_cube" else run_separate
    import time

    def timed():
        start = time.perf_counter()
        counters, sim_io = run()
        return time.perf_counter() - start, sim_io, counters

    elapsed, sim_io, counters = benchmark.pedantic(timed, rounds=2, iterations=1)
    table.add_value("cost_s", strategy, elapsed + sim_io)
    table.add_value("chunks_read", strategy, counters.get("chunks_read"))
    benchmark.extra_info["cost_s"] = elapsed + sim_io
