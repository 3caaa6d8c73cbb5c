"""Unit tests for crash points, fault plans, and the Faulty* wrappers."""

import pytest

from repro.errors import (
    FaultError,
    SimulatedCrash,
    TransientDiskError,
    TransientError,
)
from repro.storage import BufferPool
from repro.storage.faults import (
    FaultPlan,
    FaultyDisk,
    FaultyWAL,
    active_plan,
    crash_point,
    fault_plan,
    register_crash_point,
    registered_crash_points,
)


class TestCrashPointRegistry:
    def test_builtins_registered(self):
        points = registered_crash_points()
        for name in ("pool.flush_page", "wal.append", "wal.torn_sync",
                     "disk.torn_write", "checkpoint.pre_truncate"):
            assert name in points

    def test_register_is_idempotent(self):
        before = registered_crash_points()
        register_crash_point("pool.flush_page")
        assert registered_crash_points() == before

    def test_no_plan_is_a_noop(self):
        assert active_plan() is None
        crash_point("wal.append")  # must not raise

    def test_unregistered_name_rejected_under_a_plan(self):
        with fault_plan(FaultPlan()):
            with pytest.raises(FaultError, match="unregistered"):
                crash_point("no.such.point")

    def test_unknown_crash_at_rejected(self):
        with pytest.raises(FaultError, match="unknown crash point"):
            FaultPlan(crash_at="no.such.point")

    def test_bad_crash_on_hit_rejected(self):
        with pytest.raises(FaultError):
            FaultPlan(crash_at="wal.append", crash_on_hit=0)


class TestFaultPlan:
    def test_crash_fires_on_nth_hit_once(self):
        plan = FaultPlan(crash_at="wal.append", crash_on_hit=3)
        with fault_plan(plan):
            crash_point("wal.append")
            crash_point("wal.append")
            assert not plan.crashed
            with pytest.raises(SimulatedCrash):
                crash_point("wal.append")
            assert plan.crashed
            crash_point("wal.append")  # inert after the crash

    def test_other_points_never_fire(self):
        plan = FaultPlan(crash_at="wal.append")
        with fault_plan(plan):
            crash_point("wal.commit")
            crash_point("pool.flush_page")
        assert not plan.crashed
        assert plan.hits == {"wal.commit": 1, "pool.flush_page": 1}

    def test_plans_nest_and_restore(self):
        outer, inner = FaultPlan(), FaultPlan()
        with fault_plan(outer):
            with fault_plan(inner):
                assert active_plan() is inner
            assert active_plan() is outer
        assert active_plan() is None

    def test_same_seed_same_torn_cuts(self):
        a, b = FaultPlan(seed=9), FaultPlan(seed=9)
        assert [a.torn_cut(500) for _ in range(5)] == [
            b.torn_cut(500) for _ in range(5)
        ]

    def test_torn_tail_cut_lands_in_final_window(self):
        plan = FaultPlan(seed=1)
        for _ in range(50):
            cut = plan.torn_tail_cut(1000, window=25)
            assert 1000 - 25 < cut < 1000


class TestFaultyDisk:
    def test_transient_reads_heal_after_budget(self):
        disk = FaultyDisk(page_size=64)
        disk.allocate(1)
        disk.write_page(0, b"\x05" * 64)
        with fault_plan(FaultPlan(transient_read_errors=2)):
            for _ in range(2):
                with pytest.raises(TransientDiskError):
                    disk.read_page(0)
            assert disk.read_page(0) == b"\x05" * 64  # healed
        assert disk.counters.get("transient_read_errors") == 2

    def test_run_read_draws_one_fault_per_page_in_page_order(self):
        """A seeded plan fails the same page whether the pages are read
        one at a time or as a run."""

        def failing_page(read):
            disk = FaultyDisk(page_size=64)
            disk.allocate(12)
            plan = FaultPlan(seed=5, transient_read_errors=1, transient_read_prob=0.2)
            with fault_plan(plan):
                with pytest.raises(TransientDiskError) as caught:
                    for _ in range(10):
                        read(disk)
            assert disk.counters.get("transient_read_errors") == 1
            return str(caught.value), disk.counters.get("pages_read")

        by_page, pages_before = failing_page(
            lambda disk: [disk.read_page(p) for p in range(12)]
        )
        by_run, runs_before = failing_page(lambda disk: disk.read_run(0, 12))
        assert by_run == by_page
        # a failed run accounts none of its pages
        assert runs_before == pages_before - pages_before % 12

    def test_failed_run_installs_no_partial_frame_and_the_retry_heals(self):
        from repro.storage import FileManager, LargeObjectStore

        disk = FaultyDisk(page_size=256)
        pool = BufferPool(disk, capacity_bytes=64 * 256)
        store = LargeObjectStore(FileManager(pool), "objs")
        payload = bytes(range(250)) * 10  # ten pages, the last one partial
        oid = store.create(payload)
        first = store.first_page(oid)
        pool.clear()
        store.length(oid)  # directory page in
        pool.get(first + 4)  # splits the object's run in two
        plan = FaultPlan(transient_read_errors=1)
        # pages first..first+3 read clean, then the third page of the
        # second sub-run (first+5..first+9) fails
        draws = iter([False] * 6 + [True])
        plan.should_fail_read = lambda: next(draws, False)
        with fault_plan(plan):
            with pytest.raises(TransientDiskError, match=f"page {first + 7} "):
                store.read(oid)
            assert disk.counters.get("transient_read_errors") == 1
            assert not any(first + i in pool._frames for i in range(5, 10))
            for page_id, image in pool._frames.items():
                assert bytes(image) == disk._pages[page_id]
            assert store.read(oid) == payload
        assert disk.counters.get("transient_read_errors") == 1

    def test_transient_error_is_transient(self):
        assert issubclass(TransientDiskError, TransientError)

    def test_fault_free_without_plan(self):
        disk = FaultyDisk(page_size=64)
        disk.allocate(1)
        disk.write_page(0, b"\x01" * 64)
        assert disk.read_page(0) == b"\x01" * 64

    def test_clean_write_crash(self):
        disk = FaultyDisk(page_size=64)
        disk.allocate(1)
        with fault_plan(FaultPlan(crash_at="disk.write")):
            with pytest.raises(SimulatedCrash):
                disk.write_page(0, b"\x02" * 64)
        assert disk.read_page(0) == bytes(64)  # nothing landed

    def test_torn_write_persists_a_prefix(self):
        disk = FaultyDisk(page_size=64)
        disk.allocate(1)
        with fault_plan(FaultPlan(seed=4, crash_at="disk.torn_write")):
            with pytest.raises(SimulatedCrash):
                disk.write_page(0, b"\xaa" * 64)
        torn = disk.read_page(0)
        prefix = torn.rstrip(b"\x00")
        assert 0 < len(prefix) < 64 and set(prefix) == {0xAA}
        assert disk.counters.get("torn_page_writes") == 1


class TestFaultyWAL:
    def test_torn_sync_leaves_torn_tail_on_disk(self, tmp_path):
        waldir = str(tmp_path / "wal")
        wal = FaultyWAL(waldir)
        wal.log_page(0, b"before the crash")
        wal.log_commit()  # durable, fault-free
        wal.log_page(1, b"doomed batch")
        with fault_plan(FaultPlan(seed=2, crash_at="wal.torn_sync")):
            with pytest.raises(SimulatedCrash):
                wal.log_commit()

        again = FaultyWAL(waldir)
        assert again.torn_tail_detected
        # the first committed transaction survives intact
        records = again.records()
        assert records[0].image == b"before the crash"
        again.close()

    def test_pool_flush_crash_point_fires(self):
        disk = FaultyDisk(page_size=64)
        pool = BufferPool(disk, capacity_bytes=64 * 4)
        page = pool.new_page()
        pool.get(page)[:3] = b"abc"
        pool.mark_dirty(page)
        with fault_plan(FaultPlan(crash_at="pool.flush_page")):
            with pytest.raises(SimulatedCrash):
                pool.flush_all()
