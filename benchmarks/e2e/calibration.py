"""A ruler for the host's speed.

The sandbox's speed drifts by tens of percent over minutes: whole runs
land in a slow spell and read 15-50 % worse, whatever estimator is used
inside the run (``NOISE.md`` has the measurements).  What does hold
still is the *ratio* between the program's time and the time of a fixed
piece of unrelated work done at the same moment.  So between ops, and
before and after every store build, a run also times :func:`kernel` —
plain interpreter and numpy work, nothing from ``src/`` — and scales its
times by how much slower than :data:`REFERENCE_S` the kernel ran.
Reported times are therefore "at reference host speed"; on a quiet host
the scale is 1.

The kernel is timed on the calling thread's *CPU clock*, not the wall
clock.  A slow host shows on both (a process's CPU time moves with its
wall time here), but time the thread spends waiting — for the
interpreter lock, held by a thread the program started, or for a CPU —
shows only on the wall clock.  Work the program does on other threads
therefore stays in the reported times instead of being divided out.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: CPU seconds one :func:`kernel` call takes on the quiet sandbox the
#: benchmark was built on; the unit every scaled time is expressed in.
#: Only ratios to it matter: on another machine, or another interpreter,
#: every time metric moves by one common factor
#: (``driver.host_slowdown_ratio`` says which).
REFERENCE_S = 0.0016

#: an op is scaled by the kernel timings taken up to this many slots
#: before and after it: the host's speed moves within a pass too
REACH = 2

_ARRAY = np.arange(25_000, dtype=np.int64)


def kernel() -> int:
    """About three quarters interpreter, one quarter numpy — close to
    the mix that tracked the program's cold scan best (``NOISE.md``)."""
    total = 0
    for i in range(20_000):
        total += (i * i) % 7
    mirrored = _ARRAY[::-1].copy()
    counts = np.bincount(_ARRAY % 1000, weights=mirrored)
    return total + int(counts[0]) + int(mirrored[_ARRAY % 5000][0])


def sample() -> float:
    """CPU seconds one kernel call takes this thread right now."""
    started = time.thread_time()
    kernel()
    return time.thread_time() - started


def slowdown(samples: list[float]) -> float:
    """How much slower than the reference the host ran while
    ``samples`` were taken (1.0 = reference speed)."""
    return statistics.median(samples) / REFERENCE_S


def local_slowdowns(samples: list[float]) -> list[float]:
    """Per slot, the host's slowdown around that slot's op.  Sample
    ``j`` is taken right after op ``j``, so op ``j`` sits between
    samples ``j - 1`` and ``j``."""
    return [
        slowdown(samples[max(0, j - REACH): j + REACH])
        for j in range(len(samples))
    ]
