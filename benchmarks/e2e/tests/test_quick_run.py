"""``--quick`` end to end: every runner path, twice, same exact counts."""

import json
import os
import subprocess
import sys

import pytest

from benchmarks.e2e.ops import WORKLOADS

RUN = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "run.py")
ROOT = os.path.dirname(os.path.dirname(os.path.dirname(RUN)))

#: per-layer metrics that are counts made by the program: with one
#: client and no timers they must repeat exactly
EXACT = (
    "storage.pages_read_per_op", "storage.seeks_per_op",
    "storage.bytes_read_per_op", "storage.sim_io_ms_per_op",
    "storage.pool.hit_rate", "core.chunks_read_per_op",
    "core.cells_scanned_per_op", "index.bitmaps_fetched_per_op",
    "relational.fact_tuples_fetched_per_op", "olap.planner.array_share",
    "serve.result_cache.hit_rate", "serve.chunk_cache.hit_rate",
    "storage.wal.bytes_per_write", "storage.wal.fsyncs_per_write",
    "api.rollup.routed_share", "api.rollup.rebuilds_per_write",
    "api.rollup.stale_fallbacks_per_write",
)  # not api.response_bytes_per_op: a body carries its own elapsed_s


def quick(workload: str, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", "5",
         "--trace", str(trace), "--quick"],
        stdout=subprocess.PIPE, cwd=ROOT, check=True, timeout=170,
    )
    return json.loads(done.stdout.splitlines()[-1])


def contract() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_quick_runs_repeat_their_counts(workload):
    first, second = quick(workload, 1), quick(workload, 1)
    for result in (first, second):
        # the runner itself asserts that every slot's hit/route outcome
        # repeats across passes and that every answer matches the oracle
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        assert set(result["metrics"]) == {m["name"] for m in contract()["per_layer"]}
    for name in EXACT:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
    layers = [n for n in first["metrics"] if n.endswith(".self_ms")]
    assert sum(first["metrics"][n]["value"] for n in layers) > 0


@pytest.mark.parametrize("workload", ["scan_cold", "serve_rw"])
def test_untraced_quick_run_reports_every_end_to_end_metric(workload):
    first, second = quick(workload, 0), quick(workload, 0)
    named = contract()["end_to_end"]
    for result in (first, second):
        assert result["correct"] and result["failed"] == 0
        assert set(result["metrics"]) == {m["name"] for m in named}
        for metric in named:
            assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
            assert result["metrics"][metric["name"]]["value"] > 0
    assert (
        first["metrics"]["space_amp"]["value"]
        == second["metrics"]["space_amp"]["value"]
    )
