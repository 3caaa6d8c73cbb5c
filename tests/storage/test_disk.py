"""Tests for the simulated disk and its 1997 cost model."""

import pytest

from repro.errors import PageError
from repro.storage import DiskModel, SimulatedDisk


class TestAllocation:
    def test_allocations_are_contiguous(self, disk):
        first = disk.allocate(4)
        second = disk.allocate(2)
        assert second == first + 4
        assert disk.num_pages == 6

    def test_bad_allocation_count(self, disk):
        with pytest.raises(PageError):
            disk.allocate(0)

    def test_bad_page_size(self):
        with pytest.raises(PageError):
            SimulatedDisk(page_size=0)


class TestIO:
    def test_unwritten_page_reads_zeros(self, disk):
        pid = disk.allocate()
        assert disk.read_page(pid) == bytes(disk.page_size)

    def test_write_read_roundtrip(self, disk):
        pid = disk.allocate()
        image = bytes(range(256)) * (disk.page_size // 256)
        disk.write_page(pid, image)
        assert disk.read_page(pid) == image

    def test_wrong_image_size_rejected(self, disk):
        pid = disk.allocate()
        with pytest.raises(PageError):
            disk.write_page(pid, b"short")

    def test_out_of_range_page(self, disk):
        with pytest.raises(PageError):
            disk.read_page(99)


class TestCostModel:
    def test_sequential_reads_cost_no_seek(self):
        disk = SimulatedDisk(page_size=1024, model=DiskModel(seek_ms=10))
        disk.allocate(10)
        for pid in range(10):
            disk.read_page(pid)
        # first access seeks, the other nine are sequential
        assert disk.counters.get("seeks") == 1

    def test_random_reads_each_seek(self):
        disk = SimulatedDisk(page_size=1024, model=DiskModel(seek_ms=10))
        disk.allocate(10)
        for pid in (0, 5, 2, 9):
            disk.read_page(pid)
        assert disk.counters.get("seeks") == 4

    def test_near_forward_skip_charged_as_read_through(self):
        model = DiskModel(seek_ms=10, transfer_mb_per_s=1, near_window_pages=8)
        disk = SimulatedDisk(page_size=1024 * 1024, model=model)
        disk.allocate(10)
        disk.read_page(0)
        before = disk.counters.get("sim_io_s")
        disk.read_page(4)  # forward skip of 4 pages within the window
        assert disk.counters.get("sim_io_s") - before == pytest.approx(4.0)

    def test_far_forward_skip_is_a_seek(self):
        model = DiskModel(seek_ms=10, transfer_mb_per_s=1, near_window_pages=2)
        disk = SimulatedDisk(page_size=1024 * 1024, model=model)
        disk.allocate(20)
        disk.read_page(0)
        before = disk.counters.get("sim_io_s")
        disk.read_page(10)
        assert disk.counters.get("sim_io_s") - before == pytest.approx(1.01)

    def test_backward_jump_is_a_seek(self):
        model = DiskModel(seek_ms=10, transfer_mb_per_s=1, near_window_pages=8)
        disk = SimulatedDisk(page_size=1024 * 1024, model=model)
        disk.allocate(10)
        disk.read_page(5)
        disk.read_page(2)
        assert disk.counters.get("seeks") == 2

    def test_sim_io_seconds_accumulate(self):
        model = DiskModel(seek_ms=10, transfer_mb_per_s=10)
        disk = SimulatedDisk(page_size=1024 * 1024, model=model)
        disk.allocate(2)
        disk.read_page(0)
        disk.read_page(1)
        # one seek (10 ms) + 2 MB transfer at 10 MB/s (200 ms)
        assert disk.counters.get("sim_io_s") == pytest.approx(0.21)

    def test_park_forgets_arm_position(self, disk):
        disk.allocate(2)
        disk.read_page(0)
        before = disk.counters.snapshot()
        disk.park()
        assert disk.counters.snapshot() == before  # counters only count up
        disk.read_page(1)  # sequential, but the arm was parked: a seek
        assert disk.counters.get("seeks") - before["seeks"] == 1
        assert disk.counters.get("pages_read") - before["pages_read"] == 1

    def test_used_bytes(self, disk):
        disk.allocate(3)
        assert disk.used_bytes() == 3 * disk.page_size

    def test_access_seconds_formula(self):
        model = DiskModel(seek_ms=5, transfer_mb_per_s=1)
        assert model.access_seconds(1024 * 1024, jump_pages=1) == pytest.approx(1.0)
        assert model.access_seconds(1024 * 1024, jump_pages=0) == pytest.approx(
            1.005
        )
        assert model.access_seconds(1024 * 1024, jump_pages=-3) == pytest.approx(
            1.005
        )
