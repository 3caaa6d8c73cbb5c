"""Where a run happens: on one CPU, in a session of its own, and with no
process of it left behind.

A run starts processes of its own (the ``--setup-only`` builds, the
process-shard probe's pool) and the program starts some the benchmark
never sees: ``multiprocessing``'s resource tracker outlives the process
that spawned it by a moment, long enough to be found running after the
run has printed its result.  So the run happens in a child that leads a
new session, and :func:`run_contained` returns only when that session is
empty — after the child ends, fails, overruns ``timeout_s`` or this
process is told to stop.
"""

from __future__ import annotations

import contextlib
import ctypes
import os
import signal
import subprocess
import sys
import time

PR_SET_CHILD_SUBREAPER = 36
#: how long the session's stragglers get to end by themselves
GRACE_S = 5.0
#: exit code of a run that overran its time limit
TIMED_OUT = 124


def pin_to_one_cpu() -> None:
    """Confine the calling thread, and every thread and process started
    from it afterwards, to one CPU.

    The program hands each op to threads of its own (the service's
    worker, the HTTP server's handlers).  Left to the scheduler they
    land on the client's CPU in one run and on the other in the next,
    and a hand-off that has to wake an idle virtual CPU costs 60 us
    more than one that stays put: a served hit read 0.135 ms or
    0.195 ms, ten runs in a row either way (``NOISE.md``, sets L-O).  One
    CPU makes it the same hand-off every time, and puts the reference
    kernel on the CPU that does the work.  The highest-numbered CPU,
    away from CPU 0's interrupts."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


@contextlib.contextmanager
def every_cpu():
    """Inside, the calling thread and what it starts may use every CPU
    again: for the probes that measure what a second CPU buys."""
    pinned = os.sched_getaffinity(0)
    # the kernel drops the CPUs this process may not use
    os.sched_setaffinity(0, range(os.cpu_count()))
    try:
        yield
    finally:
        os.sched_setaffinity(0, pinned)


def _adopt_orphans() -> None:
    """Have the session's orphans reparented to this process, so that it
    can wait for them instead of finding their zombies under init."""
    try:
        ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass  # they go to init, which reaps them


def _reap() -> None:
    """Wait for every child of this process that has already ended."""
    try:
        while os.waitpid(-1, os.WNOHANG) != (0, 0):
            pass
    except ChildProcessError:
        pass


def session_members(sid: int) -> list[int]:
    """Pids of the processes in session ``sid`` that have not ended, or
    have and wait for this process to reap them."""
    me = os.getpid()
    members = []
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat", encoding="ascii", errors="replace") as handle:
                stat = handle.read()
        except OSError:
            continue  # ended while we were looking
        # after "pid (comm)": state ppid pgrp session ...
        fields = stat.rpartition(")")[2].split()
        if int(fields[3]) == sid and (fields[0] != "Z" or int(fields[1]) == me):
            members.append(int(name))
    return members


def empty_session(sid: int, grace_s: float = GRACE_S) -> None:
    """Return once no process of session ``sid`` is left: those still
    there after ``grace_s`` are killed."""
    deadline = time.monotonic() + grace_s
    while True:
        _reap()
        members = session_members(sid)
        if not members:
            return
        if time.monotonic() >= deadline:
            for pid in members:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        time.sleep(0.01)


def _stop(signum, frame):
    raise SystemExit(128 + signum)


def run_contained(command: list[str], timeout_s: float, cwd: str | None = None) -> int:
    """Run ``command`` with this process's stdout and stderr; returns its
    exit code, or :data:`TIMED_OUT` if it had to be killed."""
    _adopt_orphans()
    for signum in (signal.SIGTERM, signal.SIGINT, signal.SIGHUP):
        signal.signal(signum, _stop)
    child = subprocess.Popen(command, cwd=cwd, start_new_session=True)
    grace_s = 0.0  # unless the child ends by itself
    try:
        code = child.wait(timeout=timeout_s)
        grace_s = GRACE_S
    except subprocess.TimeoutExpired:
        print(f"killed after {timeout_s:.0f} s: {' '.join(command)}", file=sys.stderr)
        code = TIMED_OUT
    finally:
        empty_session(child.pid, grace_s)
        child.wait()
    return code
