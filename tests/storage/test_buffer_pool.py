"""Tests for the LRU buffer pool, pinning, and WAL integration."""

import pytest

from repro.errors import BufferPoolError, PageError, SimulatedCrash
from repro.storage import BufferPool, SimulatedDisk, WriteAheadLog, recover
from repro.storage.faults import FaultPlan, fault_plan


def make_pool(frames=4, page_size=256, wal=None):
    disk = SimulatedDisk(page_size=page_size)
    return disk, BufferPool(disk, capacity_bytes=frames * page_size, wal=wal)


class TestCaching:
    def test_hit_avoids_disk_read(self):
        disk, pool = make_pool()
        pid = pool.new_page()
        pool.flush_all()
        pool.get(pid)
        pool.get(pid)
        assert disk.counters.get("pages_read") == 0
        assert pool.counters.get("pool_hits") == 2

    def test_miss_reads_from_disk(self):
        disk, pool = make_pool()
        pid = pool.new_page()
        pool.clear()
        pool.get(pid)
        assert disk.counters.get("pages_read") == 1
        assert pool.counters.get("pool_misses") == 1

    def test_lru_eviction_order(self):
        disk, pool = make_pool(frames=2)
        a = pool.new_page()
        b = pool.new_page()
        pool.flush_all()
        pool.get(a)  # a is now most recent
        pool.new_page()  # evicts b
        assert pool.resident_pages() == 2
        before = disk.counters.get("pages_read")
        pool.get(a)
        assert disk.counters.get("pages_read") == before  # a stayed resident
        pool.get(b)
        assert disk.counters.get("pages_read") == before + 1  # b was evicted

    def test_dirty_eviction_writes_back(self):
        disk, pool = make_pool(frames=1)
        a = pool.new_page()
        buf = pool.get(a)
        buf[0] = 0xAB
        pool.mark_dirty(a)
        pool.new_page()  # forces eviction of a
        assert disk.read_page(a)[0] == 0xAB

    def test_write_replaces_image(self):
        disk, pool = make_pool()
        pid = pool.new_page()
        image = bytes([7]) * disk.page_size
        pool.write(pid, image)
        pool.flush_all()
        assert disk.read_page(pid) == image

    def test_write_wrong_size_rejected(self):
        _, pool = make_pool()
        pid = pool.new_page()
        with pytest.raises(PageError):
            pool.write(pid, b"nope")

    def test_mark_dirty_nonresident_rejected(self):
        disk, pool = make_pool()
        pid = pool.new_page()
        pool.clear()
        with pytest.raises(BufferPoolError):
            pool.mark_dirty(pid)


class TestPinning:
    def test_pinned_page_survives_pressure(self):
        disk, pool = make_pool(frames=2)
        a = pool.new_page()
        pool.flush_all()
        pool.pin(a)
        pool.new_page()
        pool.new_page()  # must evict the other page, not a
        before = disk.counters.get("pages_read")
        pool.get(a)
        assert disk.counters.get("pages_read") == before
        pool.unpin(a)

    def test_all_pinned_raises(self):
        _, pool = make_pool(frames=1)
        a = pool.new_page()
        pool.pin(a)
        with pytest.raises(BufferPoolError):
            pool.new_page()

    def test_unpin_without_pin_raises(self):
        _, pool = make_pool()
        pid = pool.new_page()
        with pytest.raises(BufferPoolError):
            pool.unpin(pid)

    def test_clear_with_pins_raises(self):
        _, pool = make_pool()
        pid = pool.new_page()
        pool.pin(pid)
        with pytest.raises(BufferPoolError):
            pool.clear()


class TestColdReset:
    def test_clear_flushes_and_drops(self):
        disk, pool = make_pool()
        pid = pool.new_page()
        buf = pool.get(pid)
        buf[1] = 0x42
        pool.mark_dirty(pid)
        pool.clear()
        assert pool.resident_pages() == 0
        assert disk.read_page(pid)[1] == 0x42

    def test_clear_leaves_the_counters_alone(self):
        disk, pool = make_pool()
        pid = pool.new_page()
        pool.clear()
        pool.get(pid)
        pool.get(pid)
        before = pool.counters.snapshot()
        assert before == {"pool_misses": 1, "pool_hits": 1}
        pool.clear()
        assert pool.counters.snapshot() == before

    def test_a_clean_unpinned_clear_writes_and_logs_nothing(self):
        wal = WriteAheadLog()
        disk, pool = make_pool(frames=8, wal=wal)
        first = disk.allocate(6)
        pool.get_run(first, 6)
        pool.pin(first)
        pool.pin(first)
        pool.unpin(first)
        pool.unpin(first)
        records = len(wal.records())
        written = disk.counters.get("pages_written")
        with fault_plan(FaultPlan()) as plan:
            pool.clear()
        assert pool.resident_pages() == 0
        assert plan.hits == {}  # no page flushed, no record appended
        assert len(wal.records()) == records
        assert disk.counters.get("pages_written") == written

    def test_clear_refuses_while_any_pin_is_held(self):
        disk, pool = make_pool()
        pid = pool.new_page()
        pool.pin(pid)
        pool.pin(pid)
        pool.unpin(pid)  # one pin still held
        with pytest.raises(BufferPoolError, match=f"pages \\[{pid}\\] pinned"):
            pool.clear()
        assert pool.resident_pages() == 1
        pool.unpin(pid)
        pool.clear()
        assert pool.resident_pages() == 0
        assert disk.counters.get("pages_written") == 1  # the new page

    def test_every_dirty_frame_is_flushed_once(self):
        disk, pool = make_pool(frames=2)
        pages = [pool.new_page() for _ in range(3)]  # the first is evicted dirty
        pool.mark_dirty(pages[2])  # dirty already: counted once
        pool.write(pages[0], bytes([7]) * disk.page_size)  # faulted back in
        assert disk.counters.get("pages_written") == 2  # two evictions
        with fault_plan(FaultPlan()) as plan:
            pool.clear()
        assert plan.hits == {"pool.flush_page": 2}
        assert disk.read_page(pages[0])[0] == 7
        with fault_plan(FaultPlan()) as plan:
            pool.clear()
        assert plan.hits == {}

    def test_a_crash_drops_pins_and_dirt(self):
        disk, pool = make_pool()
        pid = pool.new_page()
        pool.pin(pid)
        pool.crash()
        with fault_plan(FaultPlan()) as plan:
            pool.clear()  # the crashed pin and dirty frame are gone
        assert plan.hits == {}
        assert disk.counters.get("pages_written") == 0

    def test_under_a_wal_a_clear_logs_before_it_flushes(self):
        wal = WriteAheadLog()
        disk, pool = make_pool(wal=wal)
        pages = [pool.new_page() for _ in range(2)]
        for value, pid in enumerate(pages, 1):
            pool.write(pid, bytes([value]) * disk.page_size)
        with fault_plan(FaultPlan(crash_at="pool.flush_page")) as plan:
            with pytest.raises(SimulatedCrash):
                pool.clear()
        order = list(plan.hits)  # each point where it first fired
        assert order.index("wal.commit") < order.index("pool.flush_page")
        assert [r.page_id for r in wal.records()][:2] == pages
        pool.crash()
        recover(disk, wal)  # the crash came after the commit was logged
        assert [disk.read_page(pid)[0] for pid in pages] == [1, 2]

    def test_hit_rate(self):
        disk, pool = make_pool()
        pid = pool.new_page()
        pool.clear()
        assert pool.hit_rate() == 0.0  # no accesses yet
        pool.get(pid)  # miss
        pool.get(pid)  # hit
        pool.get(pid)  # hit
        assert pool.hit_rate() == pytest.approx(2 / 3)


class TestWALIntegration:
    def test_crash_before_commit_loses_writes(self):
        wal = WriteAheadLog()
        disk, pool = make_pool(wal=wal)
        pid = pool.new_page()
        buf = pool.get(pid)
        buf[0] = 0x11
        pool.mark_dirty(pid)
        pool.crash()
        recover(disk, wal)
        assert disk.read_page(pid)[0] == 0

    def test_crash_after_commit_recovers(self):
        wal = WriteAheadLog()
        disk, pool = make_pool(wal=wal)
        pid = pool.new_page()
        buf = pool.get(pid)
        buf[0] = 0x11
        pool.mark_dirty(pid)
        pool.commit()
        pool.crash()
        assert disk.read_page(pid)[0] == 0  # never flushed...
        recover(disk, wal)
        assert disk.read_page(pid)[0] == 0x11  # ...but WAL replays it

    def test_no_steal_blocks_eviction_of_unlogged_dirty(self):
        wal = WriteAheadLog()
        _, pool = make_pool(frames=1, wal=wal)
        pid = pool.new_page()
        buf = pool.get(pid)
        buf[0] = 1
        pool.mark_dirty(pid)
        with pytest.raises(BufferPoolError):
            pool.new_page()
        pool.commit()
        pool.new_page()  # after commit the frame is evictable

    def test_recover_is_idempotent(self):
        wal = WriteAheadLog()
        disk, pool = make_pool(wal=wal)
        pid = pool.new_page()
        pool.get(pid)[0] = 9
        pool.mark_dirty(pid)
        pool.commit()
        pool.crash()
        assert recover(disk, wal) == 1
        assert recover(disk, wal) == 1
        assert disk.read_page(pid)[0] == 9
