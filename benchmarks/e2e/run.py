"""The end-to-end benchmark's one command.

``python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace T``
builds W's store, replays W's seeded op list pass after pass, checks
every answer, and prints one JSON object as its last line: the
end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``) that ``BENCHMARK.json`` names.  The run happens in a
child process that leads a session of its own; this process waits until
that session is empty, so nothing a run starts outlives it
(``contain.py``).

Without ``--workload`` it runs all four workloads, both ways, each in a
process of its own and one at a time, prints every metric by name and
unit, and ends with a JSON summary (``"claim": null``: the benchmark
measures, it claims nothing).  ``--quick`` shrinks everything to the
``small`` scale and two passes for a smoke run.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
for _path in (os.path.join(ROOT, "src"), ROOT):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from benchmarks.e2e import estimators  # noqa: E402
from benchmarks.e2e.ops import WORKLOADS, make_ops  # noqa: E402

#: the seed a run uses when none is given
DEFAULT_SEED = 1998
#: timed passes a run never goes below, however slow the host
MIN_PASSES = 3
#: untraced passes before the traced one in a ``--trace 1`` run
TRACE_PLAIN_PASSES = 2
#: a run that has not ended by then is killed, with all it started
RUN_LIMIT_S = 170


def contract() -> dict:
    """``BENCHMARK.json``: the metric names, units and run length."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


# -- one workload, in this process ------------------------------------------------


def child_command(workload: str, quick: bool, *arguments: str) -> list[str]:
    """This script again, for one workload, in a process of its own."""
    command = [sys.executable, os.path.abspath(__file__), "--workload", workload]
    if quick:
        command.append("--quick")
    return command + list(arguments)


def _setup_probe(workload: str, quick: bool) -> float:
    """``setup_s`` of a fresh process that only builds the store."""
    done = subprocess.run(
        child_command(workload, quick, "--setup-only"),
        stdout=subprocess.PIPE, check=True, timeout=170, cwd=ROOT,
    )
    return json.loads(done.stdout.splitlines()[-1])["setup_s"]


def _timed_passes(runner, seconds: float, quick: bool, failures: list) -> list:
    """Replay until another pass would overshoot ``seconds`` by more
    than half a pass (quick: exactly two passes)."""
    passes = []
    started = time.perf_counter()
    while True:
        passes.append(runner.run_pass())
        failures.extend(passes[-1].failures)
        elapsed = time.perf_counter() - started
        if quick and len(passes) == 2:
            return passes
        if not quick and len(passes) >= MIN_PASSES and (
            elapsed * (1 + 0.5 / len(passes)) >= seconds
        ):
            return passes


def _epilogue(stack, runner, failures: list) -> None:
    """``serve_rw``'s last act: one more burst of writes that nothing
    restores, then a restart from the log must show every one of them."""
    from benchmarks.e2e.store import lost_writes

    for slot in runner.write_slots[: len(runner.write_slots) // 2]:
        keys = tuple(runner.ops[slot]["keys"])
        value = runner.ops[slot]["value"] % 100 + 1
        runner.attempted += 1
        try:
            stack.service.write_cell(stack.cube, keys, (value,))
        except Exception as exc:  # noqa: BLE001 — a failed op, counted
            failures.append(f"epilogue write {keys}: {type(exc).__name__}: {exc}")
        else:
            runner.acknowledged[keys] = value
    for keys in lost_writes(stack, runner.acknowledged):
        failures.append(f"acknowledged write to {keys} lost across restart")


def _end_to_end(runner, passes, setups, space_amp) -> dict:
    slots = estimators.slot_values([p.scaled_latencies for p in passes])
    reads = [slots[i] * 1e3 for i in runner.read_slots]
    return {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(slots) / sum(slots),
        "read_p50_ms": estimators.band_mean(reads, 0.50),
        "read_p90_ms": estimators.band_mean(reads, 0.90),
        "space_amp": space_amp,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _counts(runner, result) -> dict:
    """The exact-repeat counts of one pass, per op or per write."""
    c = result.counts
    reads = len(runner.read_slots)
    writes = len(runner.write_slots)
    tags = [result.tags[i] for i in runner.read_slots]
    return {
        "storage.pages_read_per_op": c["pages_read"] / reads,
        "storage.seeks_per_op": c["seeks"] / reads,
        "storage.bytes_read_per_op": c["bytes_read"] / reads,
        "storage.sim_io_ms_per_op": c["sim_io_s"] * 1e3 / reads,
        "storage.pool.hit_rate": _share(
            c["pool_hits"], c["pool_hits"] + c["pool_misses"]
        ),
        "core.chunks_read_per_op": c["chunks_read"] / reads,
        "core.cells_scanned_per_op": c["cells_scanned"] / reads,
        "index.bitmaps_fetched_per_op": c["bitmaps_fetched"] / reads,
        "relational.fact_tuples_fetched_per_op": c["fact_tuples_fetched"] / reads,
        "olap.planner.array_share": tags.count("array") / reads,
        # from the slots' outcomes, not the service's counters: those
        # also count the repeats of a cheap op
        "serve.result_cache.hit_rate": tags.count("hit") / reads,
        "serve.chunk_cache.hit_rate": _share(
            c.get("chunk_cache.hits", 0.0),
            c.get("chunk_cache.hits", 0.0) + c.get("chunk_cache.misses", 0.0),
        ),
        "storage.wal.bytes_per_write": _share(c["wal_bytes"], writes),
        "storage.wal.fsyncs_per_write": _share(c["wal_fsyncs"], writes),
        "api.rollup.routed_share": tags.count("rollup") / reads,
        "api.rollup.rebuilds_per_write": _share(
            c.get("rollup.rebuilds", 0.0), writes
        ),
        "api.rollup.stale_fallbacks_per_write": _share(
            c.get("api.stale_fallbacks", 0.0), writes
        ),
        "api.response_bytes_per_op": c["response_bytes"] / reads,
    }


def _traced(stack, runner, plain, failures: list) -> dict:
    """Run the traced pass; per-layer self times per op, in ms."""
    from benchmarks.e2e.spans import LAYERS, SpanRecorder
    from benchmarks.e2e.store import scratch_dir

    recorder = SpanRecorder()
    recorder.install()
    try:
        traced = runner.run_pass(spans=recorder)
    finally:
        recorder.uninstall()
    failures.extend(traced.failures)
    ops = len(runner.ops)
    by_layer = estimators.layer_self_ms(recorder.spans, root_name="driver:op")
    values = {
        f"{layer}.self_ms": by_layer.get(layer, 0.0) / ops for layer in LAYERS
    }
    attributed = sum(by_layer.values())
    unattributed = traced.wall_s * 1e3 - attributed
    values["trace.unattributed_ms"] = unattributed / ops
    # single issues on both sides: the traced pass issues every op once
    values["trace.overhead_ratio"] = sum(traced.first_latencies) / statistics.median(
        sum(p.first_latencies) for p in plain
    )
    if abs(unattributed) > 0.10 * traced.wall_s * 1e3:
        print(
            f"warning: {unattributed:.1f} ms of the traced pass's "
            f"{traced.wall_s * 1e3:.1f} ms are attributed to no span",
            file=sys.stderr,
        )
    path = os.path.join(scratch_dir(), f"trace-{stack.workload}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(
            {
                "workload": stack.workload,
                "ops": ops,
                "pass_wall_ms": traced.wall_s * 1e3,
                "self_ms_by_layer": by_layer,
                "unattributed_ms": unattributed,
                "spans": recorder.to_json(),
            },
            handle,
        )
    return values


def _per_layer(stack, runner, args, started: float, failures: list) -> dict:
    """A ``--trace 1`` run after its warm-up pass: plain passes for the
    counts, the traced pass for the self times, then the micro-probes
    for whatever is left of ``--seconds``."""
    from benchmarks.e2e.probes import run_probes

    plain = [runner.run_pass() for _ in range(TRACE_PLAIN_PASSES)]
    for result in plain:
        failures.extend(result.failures)
    values = _counts(runner, plain[-1])
    values.update(_traced(stack, runner, plain, failures))
    raw = [p.latencies[i] * 1e3 for p in plain for i in runner.read_slots]
    values["driver.read_raw_p95_ms"] = estimators.quantile(raw, 0.95)
    slots = estimators.slot_values([p.latencies for p in plain])
    values["serve.write_p50_ms"] = (
        estimators.quantile([slots[i] * 1e3 for i in runner.write_slots], 0.50)
        if stack.workload == "serve_rw"
        else 0.0
    )
    values["data.generate_krows_per_s"] = (
        stack.cells.n_rows / stack.timings["generate"] / 1e3
    )
    values["olap.load_cube_s"] = stack.timings["load"]
    # per-layer times are as measured; these say on what host, and
    # what the end-to-end throughput is before any scaling
    values["driver.host_slowdown_ratio"] = statistics.median(
        p.slowdown for p in plain
    )
    values["driver.unscaled_ops_per_s"] = len(slots) / sum(slots)
    # the probes bring a serving stack of their own
    stack.stop_serving()
    budget = args.seconds - (time.perf_counter() - started)
    rounds = (1, 1) if args.quick else (3, 9)
    values.update(run_probes(stack, budget, *rounds))
    return values


def run_workload(args) -> int:
    """The contract's invocation: one workload, one JSON line.  Runs in
    the session :func:`main` made for it."""
    from benchmarks.e2e.store import scratch_dir, setup
    from benchmarks.e2e.workloads import Runner

    scratch_dir()
    scale = "small" if args.quick else "paper"
    named = contract()
    stack = setup(args.workload, scale)
    failures: list[str] = []
    try:
        ops = make_ops(args.workload, args.seed, stack.cells)
        runner = Runner(stack, ops)
        warm = runner.run_pass(oracle_pass=True)
        failures.extend(warm.failures)
        space_amp = stack.space_amp()
        started = time.perf_counter()  # --seconds runs from here
        if not args.trace:
            setups = [stack.setup_s, _setup_probe(args.workload, args.quick)]
            passes = _timed_passes(runner, args.seconds, args.quick, failures)
            setups.append(_setup_probe(args.workload, args.quick))
            values = _end_to_end(runner, passes, setups, space_amp)
            section = "end_to_end"
        else:
            values = _per_layer(stack, runner, args, started, failures)
            section = "per_layer"
        if args.workload == "serve_rw":
            if stack.service is None:
                stack.start_serving()
            _epilogue(stack, runner, failures)
    finally:
        stack.close()
    for line in failures[:20]:
        print("FAILED", line, file=sys.stderr)
    metrics = {}
    for metric in named[section]:
        metrics[metric["name"]] = {
            "value": values[metric["name"]],
            "unit": metric["unit"],
        }
        print(f"{metric['name']:45s} {values[metric['name']]:>16.6f} {metric['unit']}")
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": runner.attempted,
                "failed": len(failures),
                "metrics": metrics,
            }
        )
    )
    return 1 if failures else 0


def setup_only(args) -> int:
    from benchmarks.e2e.store import scratch_dir, setup

    scratch_dir()
    stack = setup(args.workload, "small" if args.quick else "paper")
    try:
        print(
            json.dumps(
                {
                    "setup_s": stack.setup_s,
                    "slowdown": stack.slowdown,
                    "segments": stack.timings,
                }
            )
        )
    finally:
        stack.close()
    return 0


# -- all workloads, one process each --------------------------------------------------


def run_all(args) -> int:
    """Every workload, untraced then traced, one child at a time."""
    summary = {"seed": args.seed, "quick": args.quick, "workloads": {}}
    ok = True
    for trace in (0, 1):
        for workload in WORKLOADS:
            command = child_command(
                workload, args.quick, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(trace),
            )
            done = subprocess.run(command, stdout=subprocess.PIPE, cwd=ROOT)
            if done.returncode != 0:
                print(f"{workload} --trace {trace}: exit {done.returncode}")
                ok = False
                continue
            result = json.loads(done.stdout.splitlines()[-1])
            entry = summary["workloads"].setdefault(
                workload, {"attempted": 0, "failed": 0, "metrics": {}}
            )
            entry["attempted"] += result["attempted"]
            entry["failed"] += result["failed"]
            entry["metrics"].update(result["metrics"])
            ok = ok and result["correct"]
            print(
                f"== {workload} --trace {trace}: {result['attempted']} ops, "
                f"{result['failed']} failed"
            )
            for name, metric in result["metrics"].items():
                print(f"   {name:45s} {metric['value']:>16.6f} {metric['unit']}")
    summary["correct"] = ok
    summary["claim"] = None
    print(json.dumps(summary))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--contained", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = float(contract()["run_seconds"])
    if args.setup_only:
        if args.workload is None:
            parser.error("--setup-only needs --workload")
        return setup_only(args)
    if args.workload is None:
        return run_all(args)
    if args.contained:
        return run_workload(args)
    # the run starts processes, and the program some of its own: it gets
    # a session to itself, and this process sees the session emptied
    from benchmarks.e2e.contain import pin_to_one_cpu, run_contained

    pin_to_one_cpu()  # inherited by the run and all it starts
    arguments = sys.argv[1:] if argv is None else list(argv)
    command = [sys.executable, os.path.abspath(__file__), *arguments, "--contained"]
    return run_contained(command, RUN_LIMIT_S, cwd=ROOT)


if __name__ == "__main__":
    sys.exit(main())
