"""Failure injection: corrupted bytes must raise, never mis-answer."""

import pytest

from repro.core import OLAPArray
from repro.core.builder import build_olap_array
from repro.core.compression import decode_chunk
from repro.errors import (
    ArrayError,
    BTreeError,
    CompressionError,
    FileError,
    ReproError,
    SimulatedCrash,
)
from repro.index import BTree
from repro.storage import (
    BufferPool,
    FileManager,
    PageFile,
    SimulatedDisk,
    WriteAheadLog,
)
from repro.storage.faults import FaultPlan, FaultyWAL, fault_plan


def make_stack(page_size=512, frames=128):
    disk = SimulatedDisk(page_size=page_size)
    pool = BufferPool(disk, capacity_bytes=frames * page_size)
    return disk, pool, FileManager(pool)


class TestCorruptPages:
    def test_page_file_header_corruption_detected(self):
        disk, pool, fm = make_stack()
        pfile = fm.create("t")
        pool.clear()  # flush first so the corruption below sticks
        disk.write_page(pfile.header_page_id, b"\xde\xad" * (disk.page_size // 2))
        with pytest.raises(FileError):
            PageFile(pool, pfile.header_page_id)

    def test_corrupt_chunk_payload_detected(self):
        disk, pool, fm = make_stack()
        from tests.core.conftest import make_dimensions, make_facts

        array = build_olap_array(
            fm, "c", make_dimensions(), make_facts(density=0.3), (3, 2, 4)
        )
        # flip the codec tag of the first stored chunk
        first_nonempty = next(
            c
            for c in range(array.geometry.n_chunks)
            if array.directory.entry(c)[0] != -1
        )
        oid, _, _ = array.directory.entry(first_nonempty)
        first_page = array.chunks.first_page(oid)
        image = bytearray(disk.read_page(first_page))
        image[0] = 0xEE
        pool.clear()
        disk.write_page(first_page, bytes(image))
        array.invalidate_caches()
        with pytest.raises(CompressionError):
            array.read_chunk(first_nonempty)

    def test_truncated_chunk_payload_detected(self):
        with pytest.raises(CompressionError):
            decode_chunk(b"", 64, 1, "int64")


class TestCorruptWAL:
    def test_truncated_log_detected(self, tmp_path):
        wal = FaultyWAL(str(tmp_path))
        wal.log_page(1, b"x" * 40)
        wal.log_commit()
        with fault_plan(FaultPlan(crash_at="wal.torn_sync")):
            wal.log_page(2, b"y" * 40)
            with pytest.raises(SimulatedCrash):
                wal.log_commit()
        again = WriteAheadLog.open(str(tmp_path))
        assert again.torn_tail_detected
        # the torn commit's transaction is gone, the committed one kept
        assert [r.page_id for r in again.records()] == [1, 0]
        again.close()


class TestBTreeValidation:
    def test_validate_catches_tampered_metadata(self):
        _, pool, fm = make_stack()
        tree = BTree.create(fm, "idx")
        for i in range(50):
            tree.insert(i, i)
        stale = fm.open("idx").get_meta()
        tree.insert(50, 50)
        # the insert's metadata write is lost: the count is one behind
        fm.open("idx").set_meta(stale)
        with pytest.raises(BTreeError):
            BTree.open(fm, "idx").validate()


class TestErrorHierarchy:
    def test_every_domain_error_is_a_repro_error(self):
        import repro.errors as errors

        for name in dir(errors):
            obj = getattr(errors, name)
            if (
                isinstance(obj, type)
                and issubclass(obj, Exception)
                and obj is not Exception
            ):
                assert issubclass(obj, ReproError), name

    def test_array_open_without_metadata(self):
        _, pool, fm = make_stack()
        from repro.core.meta import ChunkDirectory

        ChunkDirectory.create(fm, "ghost.dir", 4)
        from repro.storage import LargeObjectStore

        LargeObjectStore(fm, "ghost.aux")
        with pytest.raises(ArrayError):
            OLAPArray.open(fm, "ghost")
