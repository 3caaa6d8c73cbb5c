"""The ruler must not forgive work the benchmarked process does itself."""

import threading
import time

import pytest

from benchmarks.e2e import calibration
from benchmarks.e2e.ops import make_ops
from benchmarks.e2e.run import _end_to_end
from benchmarks.e2e.store import scratch_dir, setup
from benchmarks.e2e.workloads import Runner


def test_the_kernel_is_timed_on_the_threads_cpu_clock():
    wall = time.perf_counter()
    samples = [calibration.sample() for _ in range(5)]
    wall = time.perf_counter() - wall
    assert all(s > 0 for s in samples)
    assert sum(samples) <= wall


def test_an_op_is_scaled_by_the_readings_around_it():
    unit = calibration.REFERENCE_S
    assert calibration.slowdown([unit, 3 * unit, 2 * unit]) == pytest.approx(2.0)
    # sample j follows op j; the window is samples j-2 .. j+1
    samples = [unit, unit, unit, 2 * unit, 2 * unit, 2 * unit, 2 * unit]
    assert calibration.local_slowdowns(samples) == pytest.approx([1, 1, 1, 1.5, 2, 2, 2])
    assert calibration.local_slowdowns([3 * unit]) == pytest.approx([3.0])


def test_a_busy_thread_in_the_process_cannot_improve_ops_per_s():
    """A program change that adds a spinning background thread slows
    every op (they share the interpreter lock).  Were the kernel timed
    on the wall clock it would slow by as much or more, and the scaled
    throughput would *rise*; on the thread's CPU clock it must not."""
    scratch_dir()
    stack = setup("scan_cold", "small")
    stop = threading.Event()

    def spin():
        while not stop.is_set():
            sum(i * i for i in range(1000))

    try:
        runner = Runner(stack, make_ops("scan_cold", 3, stack.cells))
        runner.run_pass(oracle_pass=True)
        quiet = [runner.run_pass() for _ in range(3)]
        thread = threading.Thread(target=spin, daemon=True)
        thread.start()
        try:
            busy = [runner.run_pass() for _ in range(3)]
        finally:
            stop.set()
            thread.join()
    finally:
        stack.close()
    assert not any(p.failures for p in quiet + busy)
    before = _end_to_end(runner, quiet, [1.0], 1.0)["ops_per_s"]
    after = _end_to_end(runner, busy, [1.0], 1.0)["ops_per_s"]
    raw_before = sum(sum(p.latencies) for p in quiet)
    raw_after = sum(sum(p.latencies) for p in busy)
    assert raw_after > 1.2 * raw_before  # the thread did cost something
    assert after < before
