"""Tests for the write-ahead log and recovery."""

import os

import pytest

from repro.errors import WALError
from repro.storage import SimulatedDisk, WriteAheadLog, recover
from repro.storage.wal import LogRecord, _KIND_COMMIT, _KIND_PAGE


class TestLog:
    def test_lsns_increase(self):
        wal = WriteAheadLog()
        assert wal.log_page(3, b"abc") == 0
        assert wal.log_commit() == 1
        assert wal.log_page(4, b"") == 2

    def test_records_decode_in_order(self):
        wal = WriteAheadLog()
        wal.log_page(7, b"payload")
        wal.log_commit()
        records = wal.records()
        assert [r.kind for r in records] == [_KIND_PAGE, _KIND_COMMIT]
        assert records[0].page_id == 7
        assert records[0].image == b"payload"

    def test_checkpoint_truncates(self):
        wal = WriteAheadLog()
        wal.log_page(1, b"x")
        wal.checkpoint()
        assert wal.records() == []
        assert wal.size_bytes() == 0

    def test_decode_rejects_truncated_header(self):
        with pytest.raises(WALError):
            LogRecord.decode(b"\x00\x01", 0)

    def test_decode_rejects_truncated_payload(self):
        raw = LogRecord(0, _KIND_PAGE, 1, b"abcdef").encode()[:-2]
        with pytest.raises(WALError):
            LogRecord.decode(raw, 0)


class TestRecovery:
    def make_disk(self, pages=4, page_size=128):
        disk = SimulatedDisk(page_size=page_size)
        disk.allocate(pages)
        return disk

    def page_image(self, disk, fill):
        return bytes([fill]) * disk.page_size

    def test_only_committed_records_replay(self):
        disk = self.make_disk()
        wal = WriteAheadLog()
        wal.log_page(0, self.page_image(disk, 1))
        wal.log_commit()
        wal.log_page(1, self.page_image(disk, 2))  # uncommitted
        assert recover(disk, wal) == 1
        assert disk.read_page(0)[0] == 1
        assert disk.read_page(1)[0] == 0

    def test_latest_committed_image_wins(self):
        disk = self.make_disk()
        wal = WriteAheadLog()
        wal.log_page(0, self.page_image(disk, 1))
        wal.log_commit()
        wal.log_page(0, self.page_image(disk, 9))
        wal.log_commit()
        recover(disk, wal)
        assert disk.read_page(0)[0] == 9

    def test_recovery_extends_volume_for_new_pages(self):
        disk = self.make_disk(pages=1)
        wal = WriteAheadLog()
        wal.log_page(5, self.page_image(disk, 7))
        wal.log_commit()
        recover(disk, wal)
        assert disk.num_pages == 6
        assert disk.read_page(5)[0] == 7

    def test_empty_log_recovers_nothing(self):
        disk = self.make_disk()
        assert recover(disk, WriteAheadLog()) == 0

    def test_recover_discards_uncommitted_tail_in_process(self):
        # in-place recovery (recover_cube) must drop an aborted
        # transaction's records, or the next commit covers them
        disk = self.make_disk()
        wal = WriteAheadLog()
        wal.log_page(0, self.page_image(disk, 1))
        wal.log_commit()
        wal.log_page(1, self.page_image(disk, 2))  # aborted, never committed
        recover(disk, wal)
        assert len(wal.records()) == 2  # the aborted record is gone
        wal.log_page(2, self.page_image(disk, 3))
        wal.log_commit()
        fresh = self.make_disk()
        recover(fresh, wal)
        assert fresh.read_page(2)[0] == 3
        assert fresh.read_page(1)[0] == 0  # aborted image never replays

    def test_double_crash_does_not_resurrect_aborted_pages(self, tmp_path):
        # regression for the retroactive-commit hazard across restarts:
        # crash → recover → commit → crash → recover must not replay the
        # first crash's aborted after-images
        disk = self.make_disk()
        waldir = str(tmp_path / "wal")
        wal = WriteAheadLog.open(waldir)
        wal.log_page(0, self.page_image(disk, 1))
        wal.log_commit()
        wal.log_page(1, self.page_image(disk, 2))
        wal.sync()  # synced, but the commit marker never lands
        del wal  # first crash

        wal2 = WriteAheadLog.open(waldir)
        recover(disk, wal2)
        assert disk.read_page(1)[0] == 0
        wal2.log_page(2, self.page_image(disk, 3))
        wal2.log_commit()  # the survivor's first commit
        del wal2  # second crash

        fresh = self.make_disk()
        wal3 = WriteAheadLog.open(waldir)
        recover(fresh, wal3)
        assert fresh.read_page(0)[0] == 1
        assert fresh.read_page(2)[0] == 3
        assert fresh.read_page(1)[0] == 0  # page never reverts to aborted data
        wal3.close()


class TestFileBackedLog:
    def waldir(self, tmp_path):
        return str(tmp_path / "wal")

    def test_commit_is_the_fsync_point(self, tmp_path):
        wal = WriteAheadLog.open(self.waldir(tmp_path))
        wal.log_page(0, b"page image")
        assert wal.pending_bytes > 0  # appended, not yet durable
        wal.log_commit()
        assert wal.pending_bytes == 0

    def test_reopen_resumes_log_and_lsns(self, tmp_path):
        waldir = self.waldir(tmp_path)
        with WriteAheadLog.open(waldir) as wal:
            wal.log_page(0, b"aa")
            wal.log_commit()
        again = WriteAheadLog.open(waldir)
        assert [r.kind for r in again.records()] == [_KIND_PAGE, _KIND_COMMIT]
        assert again.log_page(1, b"bb") == 2  # LSNs continue
        again.close()

    def test_segments_roll_over(self, tmp_path):
        waldir = self.waldir(tmp_path)
        wal = WriteAheadLog.open(waldir, segment_bytes=128)
        for _ in range(4):
            wal.log_page(0, b"x" * 100)
            wal.log_commit()
        segments = [n for n in os.listdir(waldir) if n.endswith(".wal")]
        assert len(segments) > 1
        again = WriteAheadLog.open(waldir, segment_bytes=128)
        assert len(again.records()) == 8  # 4 pages + 4 commits, all files
        again.close()
        wal.close()

    def test_unsynced_records_do_not_survive_reopen(self, tmp_path):
        waldir = self.waldir(tmp_path)
        wal = WriteAheadLog.open(waldir)
        wal.log_page(0, b"committed")
        wal.log_commit()
        wal.log_page(1, b"volatile")  # never synced
        # no close(): the "process" dies here
        again = WriteAheadLog.open(waldir)
        assert len(again.records()) == 2
        again.close()

    def test_close_without_sync_models_abrupt_exit(self, tmp_path):
        waldir = self.waldir(tmp_path)
        wal = WriteAheadLog.open(waldir)
        wal.log_page(0, b"volatile")
        wal.close(sync=False)
        assert WriteAheadLog.open(waldir).records() == []

    def test_torn_tail_detected_and_discarded(self, tmp_path):
        waldir = self.waldir(tmp_path)
        wal = WriteAheadLog.open(waldir)
        wal.log_page(0, b"first")
        wal.log_commit()
        wal.log_page(1, b"second")
        wal.log_commit()
        wal.close()
        segment = os.path.join(waldir, sorted(os.listdir(waldir))[-1])
        with open(segment, "r+b") as handle:
            handle.truncate(os.path.getsize(segment) - 7)

        again = WriteAheadLog.open(waldir)
        assert again.torn_tail_detected
        # tearing off the commit marker aborts the whole second
        # transaction: its page record is discarded with the tear, so a
        # later commit marker cannot retroactively commit it
        kinds = [r.kind for r in again.records()]
        assert kinds == [_KIND_PAGE, _KIND_COMMIT]
        # the torn bytes were physically truncated: appends stay valid
        again.log_page(1, b"second again")
        again.log_commit()
        final = WriteAheadLog.open(waldir)
        assert not final.torn_tail_detected
        assert len(final.records()) == 4
        final.close()
        again.close()

    def test_orphan_tail_not_retroactively_committed(self, tmp_path):
        # regression: a synced-but-uncommitted tail (torn commit marker)
        # used to linger in the log; the restarted process's first
        # commit then "committed" the aborted transaction and the NEXT
        # recovery replayed it
        waldir = self.waldir(tmp_path)
        wal = WriteAheadLog.open(waldir)
        wal.log_page(0, b"committed")
        wal.log_commit()
        wal.log_page(1, b"aborted")
        wal.sync()  # durable, but the commit marker never lands
        del wal  # the process dies

        again = WriteAheadLog.open(waldir)
        assert int(again.counters.get("wal_orphan_bytes_discarded")) > 0
        again.log_page(2, b"survivor")
        again.log_commit()
        again.close()

        final = WriteAheadLog.open(waldir)
        pages = [r.page_id for r in final.records() if r.kind == _KIND_PAGE]
        assert pages == [0, 2]  # the aborted page 1 image is gone for good
        final.close()

    def test_torn_tail_filling_whole_final_segment(self, tmp_path):
        # regression: when the tear starts exactly at a segment
        # boundary the final segment is deleted outright, and reopen
        # used to stat the deleted path and die with FileNotFoundError
        waldir = self.waldir(tmp_path)
        wal = WriteAheadLog.open(waldir, segment_bytes=64)
        wal.log_page(0, b"x" * 50)
        wal.log_commit()  # overflows 64 bytes: segment 0 rolls
        wal.log_page(1, b"y" * 10)
        wal.log_commit()  # lands in segment 1
        wal.close()
        segments = sorted(
            n for n in os.listdir(waldir) if n.endswith(".wal")
        )
        assert len(segments) == 2
        with open(os.path.join(waldir, segments[-1]), "r+b") as handle:
            handle.truncate(8 + 5)  # magic + a torn header fragment

        again = WriteAheadLog.open(waldir, segment_bytes=64)
        assert again.torn_tail_detected
        assert [r.page_id for r in again.records() if r.kind == _KIND_PAGE] == [0]
        # appends after the deleted segment still work
        again.log_page(2, b"z")
        again.log_commit()
        again.close()
        final = WriteAheadLog.open(waldir, segment_bytes=64)
        assert len(final.records()) == 4
        final.close()

    def test_mid_log_corruption_raises_instead_of_truncating(self, tmp_path):
        # a CRC flip in the middle of the log is damage, not a tear:
        # committed records follow it, so reopen must refuse to
        # silently discard them
        waldir = self.waldir(tmp_path)
        wal = WriteAheadLog.open(waldir)
        wal.log_page(0, b"first")
        wal.log_commit()
        wal.log_page(1, b"second")
        wal.log_commit()
        wal.close()
        segment = os.path.join(waldir, sorted(os.listdir(waldir))[-1])
        with open(segment, "r+b") as handle:
            handle.seek(8 + 25)  # magic + header: inside record 0's image
            byte = handle.read(1)
            handle.seek(-1, os.SEEK_CUR)
            handle.write(bytes([byte[0] ^ 0xFF]))
        with pytest.raises(WALError, match="corruption"):
            WriteAheadLog.open(waldir)

    def test_crc_failure_on_final_record_is_a_tear(self, tmp_path):
        # the final record's CRC trailer never fully landing is
        # indistinguishable from a partial sector write: recoverable
        waldir = self.waldir(tmp_path)
        wal = WriteAheadLog.open(waldir)
        wal.log_page(0, b"first")
        wal.log_commit()
        wal.log_page(1, b"second")
        wal.log_commit()
        wal.close()
        segment = os.path.join(waldir, sorted(os.listdir(waldir))[-1])
        with open(segment, "r+b") as handle:
            handle.seek(-1, os.SEEK_END)
            byte = handle.read(1)
            handle.seek(-1, os.SEEK_CUR)
            handle.write(bytes([byte[0] ^ 0xFF]))
        again = WriteAheadLog.open(waldir)
        assert again.torn_tail_detected
        assert [r.kind for r in again.records()] == [_KIND_PAGE, _KIND_COMMIT]
        again.close()

    def test_corrupt_mid_log_record_still_raises(self, tmp_path):
        waldir = self.waldir(tmp_path)
        wal = WriteAheadLog.open(waldir)
        wal.log_page(0, b"abcdef")
        wal.log_commit()
        wal.close()
        segment = os.path.join(waldir, sorted(os.listdir(waldir))[-1])
        with open(segment, "r+b") as handle:
            handle.seek(8 + 5)  # magic, then a byte of record 0's header
            byte = handle.read(1)
            handle.seek(-1, os.SEEK_CUR)
            handle.write(bytes([byte[0] ^ 0xFF]))
        with pytest.raises(WALError):
            WriteAheadLog.open(waldir)

    def test_checkpoint_saves_image_and_truncates(self, tmp_path):
        waldir = self.waldir(tmp_path)
        disk = SimulatedDisk(page_size=64)
        disk.allocate(2)
        disk.write_page(0, b"\x07" * 64)
        wal = WriteAheadLog.open(waldir)
        wal.log_page(0, b"\x07" * 64)
        wal.log_commit()
        image = wal.checkpoint(disk)
        assert image == os.path.join(waldir, "checkpoint.img")
        assert wal.size_bytes() == 0
        assert not [n for n in os.listdir(waldir) if n.endswith(".wal")]
        assert SimulatedDisk.load(image).read_page(0) == b"\x07" * 64
        assert wal.checkpoint_image_path() == image
        wal.close()

    def test_in_memory_checkpoint_with_disk_needs_image_path(self):
        wal = WriteAheadLog()
        disk = SimulatedDisk(page_size=64)
        with pytest.raises(WALError, match="image path"):
            wal.checkpoint(disk)

    def test_bad_segment_magic_rejected(self, tmp_path):
        waldir = self.waldir(tmp_path)
        os.makedirs(waldir)
        with open(os.path.join(waldir, "00000000.wal"), "wb") as handle:
            handle.write(b"NOTAWAL!" + bytes(32))
        with pytest.raises(WALError, match="not a WAL segment"):
            WriteAheadLog.open(waldir)

    def test_bad_segment_bytes_rejected(self, tmp_path):
        with pytest.raises(WALError, match="segment_bytes"):
            WriteAheadLog.open(self.waldir(tmp_path), segment_bytes=0)
