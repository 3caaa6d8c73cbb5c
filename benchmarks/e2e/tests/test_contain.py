"""``run_contained`` returns only when nothing of the run is left."""

import os
import signal
import subprocess
import sys
import time

from benchmarks.e2e.contain import TIMED_OUT, session_members

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__)
))))

#: a child that starts a sleeper, says where it is, and ends (or not)
CHILD = """
import subprocess, sys, time
sleeper = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(60)"])
open(sys.argv[1], "w").write(str(sleeper.pid))
time.sleep(float(sys.argv[2]))
sys.exit(3)
"""

#: ``run_contained`` in a process of its own: it adopts orphans and
#: installs signal handlers, which the test process must not
SUPERVISOR = """
import sys
from benchmarks.e2e import contain
contain.GRACE_S = 0.2
sys.exit(contain.run_contained(
    [sys.executable, "-c", sys.argv[1], sys.argv[2], sys.argv[3]], float(sys.argv[4])
))
"""


def alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
            return handle.read().rpartition(")")[2].split()[0] != "Z"
    except OSError:
        return False


def supervise(tmp_path, child_sleeps: float, limit: float) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, "-c", SUPERVISOR, CHILD, str(tmp_path / "pid"),
         str(child_sleeps), str(limit)],
        cwd=ROOT,
    )


def sleeper_pid(tmp_path) -> int:
    path = tmp_path / "pid"
    for _ in range(500):
        if path.exists() and path.read_text():
            return int(path.read_text())
        time.sleep(0.01)
    raise AssertionError("the child never started its sleeper")


def test_a_process_that_outlives_the_run_is_stopped(tmp_path):
    supervisor = supervise(tmp_path, child_sleeps=0.1, limit=30)
    assert supervisor.wait(timeout=30) == 3  # the child's own exit code
    assert not alive(sleeper_pid(tmp_path))


def test_a_run_over_its_limit_is_killed_with_all_it_started(tmp_path):
    supervisor = supervise(tmp_path, child_sleeps=60, limit=0.5)
    assert supervisor.wait(timeout=30) == TIMED_OUT
    assert not alive(sleeper_pid(tmp_path))


def test_stopping_the_supervisor_stops_the_run(tmp_path):
    supervisor = supervise(tmp_path, child_sleeps=60, limit=30)
    sleeper = sleeper_pid(tmp_path)
    supervisor.send_signal(signal.SIGTERM)
    assert supervisor.wait(timeout=30) == 128 + signal.SIGTERM
    assert not alive(sleeper)


def test_session_members_lists_a_session_until_its_processes_are_reaped():
    child = subprocess.Popen(
        [sys.executable, "-c", "import time; time.sleep(60)"], start_new_session=True
    )
    try:
        assert session_members(child.pid) == [child.pid]
        child.kill()
        while alive(child.pid):
            time.sleep(0.01)
        # a zombie now, and this process's to reap: still a member
        assert session_members(child.pid) == [child.pid]
    finally:
        child.wait()
    assert session_members(child.pid) == []


#: in a process of its own: the test process keeps its CPUs
PINNING = """
import os
from benchmarks.e2e.contain import every_cpu, pin_to_one_cpu
allowed = os.sched_getaffinity(0)
pin_to_one_cpu()
pinned = os.sched_getaffinity(0)
assert len(pinned) == 1 and pinned <= allowed, pinned
with every_cpu():
    assert os.sched_getaffinity(0) == allowed
    child = os.popen("python3 -c 'import os; print(len(os.sched_getaffinity(0)))'").read()
    assert int(child) == len(allowed), child
assert os.sched_getaffinity(0) == pinned
child = os.popen("python3 -c 'import os; print(len(os.sched_getaffinity(0)))'").read()
assert int(child) == 1, child
"""


def test_the_pin_holds_for_children_and_lifts_inside_every_cpu():
    subprocess.run([sys.executable, "-c", PINNING], cwd=ROOT, check=True, timeout=60)
