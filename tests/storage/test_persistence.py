"""End-to-end persistence: save the volume, reload, query again."""

import pytest

from repro.data import (
    SyntheticCubeConfig,
    cube_schema_for,
    generate_dimension_rows,
    generate_fact_rows,
)
from repro.errors import CatalogError, PageError
from repro.olap import ConsolidationQuery, OlapEngine
from repro.relational import Database, Schema
from repro.storage import SimulatedDisk

CONFIG = SyntheticCubeConfig(
    name="persist",
    dim_sizes=(6, 5, 8),
    n_valid=100,
    chunk_shape=(3, 3, 4),
    fanout1=3,
)
QUERY = ConsolidationQuery.build(
    "persist", group_by={"dim0": "h01", "dim1": "h11"}
)


class TestDiskImage:
    def test_roundtrip(self, tmp_path):
        disk = SimulatedDisk(page_size=256)
        disk.allocate(5)
        disk.write_page(2, b"\x42" * 256)
        path = str(tmp_path / "volume.img")
        disk.save(path)
        again = SimulatedDisk.load(path)
        assert again.page_size == 256
        assert again.num_pages == 5
        assert again.read_page(2) == b"\x42" * 256
        assert again.read_page(0) == bytes(256)

    def test_empty_volume(self, tmp_path):
        disk = SimulatedDisk(page_size=128)
        path = str(tmp_path / "empty.img")
        disk.save(path)
        assert SimulatedDisk.load(path).num_pages == 0

    def test_bad_magic_rejected(self, tmp_path):
        path = str(tmp_path / "junk.img")
        with open(path, "wb") as handle:
            handle.write(b"NOTADISK" + bytes(100))
        with pytest.raises(PageError):
            SimulatedDisk.load(path)

    def test_unwritten_pages_load_as_zero(self, tmp_path):
        disk = SimulatedDisk(page_size=64)
        disk.allocate(3)  # never written: saved and reloaded as zero pages
        path = str(tmp_path / "zeros.img")
        disk.save(path)
        again = SimulatedDisk.load(path)
        assert again.num_pages == 3
        assert all(again.read_page(i) == bytes(64) for i in range(3))

    def test_truncated_header_rejected(self, tmp_path):
        path = str(tmp_path / "short.img")
        with open(path, "wb") as handle:
            handle.write(SimulatedDisk._IMAGE_MAGIC + b"\x01\x02")
        with pytest.raises(PageError, match="truncated"):
            SimulatedDisk.load(path)

    def test_page_size_mismatch_rejected(self, tmp_path):
        # header promises 2 pages of 256 bytes but only 1.5 are present
        disk = SimulatedDisk(page_size=256)
        disk.allocate(2)
        disk.write_page(0, b"\x11" * 256)
        path = str(tmp_path / "cut.img")
        disk.save(path)
        size = 8 + 12 + 2 * 256
        with open(path, "r+b") as handle:
            handle.truncate(size - 128)
        with pytest.raises(PageError, match="truncated at page 1"):
            SimulatedDisk.load(path)

    def test_corrupt_header_fields_rejected(self, tmp_path):
        import struct

        path = str(tmp_path / "neg.img")
        with open(path, "wb") as handle:
            handle.write(SimulatedDisk._IMAGE_MAGIC)
            handle.write(struct.pack("<iq", -8, 1))
        with pytest.raises(PageError, match="corrupt"):
            SimulatedDisk.load(path)


class TestDatabaseAttach:
    def test_tables_and_indexes_survive(self, tmp_path):
        db = Database(page_size=512, pool_bytes=128 * 512)
        dim = db.create_heap_table(
            "dim", Schema([("k", "int32"), ("h", "str:4")])
        )
        dim.insert_many([(i, f"h{i % 2}") for i in range(20)])
        fact = db.create_fact_table(
            "fact", Schema([("k", "int32"), ("v", "int32")])
        )
        fact.append_many([(i % 20, i) for i in range(200)])
        db.create_btree_index("fact.k.idx", "fact", "k")
        db.create_bitmap_index("fact.h.bm", 200, (f"h{(i % 20) % 2}" for i in range(200)))
        db.pool.flush_all()

        path = str(tmp_path / "db.img")
        db.disk.save(path)

        attached = Database.attach(SimulatedDisk.load(path))
        assert attached.table_names() == ["dim", "fact"]
        assert len(attached.table("fact")) == 200
        assert attached.table("fact").get(7) == (7, 7)
        assert attached.btree("fact.k.idx").search(3) == [3, 23, 43, 63, 83,
                                                          103, 123, 143, 163, 183]
        bitmap = attached.bitmap("fact.h.bm")
        assert bitmap.length == 200
        assert bitmap.bitmap_for("h1").count() == 100

    def test_attach_empty_database(self, tmp_path):
        db = Database(page_size=512)
        db.pool.flush_all()
        path = str(tmp_path / "empty.img")
        db.disk.save(path)
        attached = Database.attach(SimulatedDisk.load(path))
        assert attached.table_names() == []


class TestDatabaseLifecycle:
    def test_context_manager_flushes_on_exit(self, tmp_path):
        path = str(tmp_path / "ctx.img")
        with Database(page_size=512) as db:
            heap = db.create_heap_table("t", Schema([("k", "int32")]))
            heap.insert_many([(i,) for i in range(10)])
        # no explicit flush_all: __exit__ must leave the disk complete
        db.disk.save(path)
        attached = Database.attach(SimulatedDisk.load(path))
        assert len(list(attached.table("t").scan())) == 10

    def test_close_is_idempotent(self):
        db = Database(page_size=512)
        db.close()
        db.close()

    def test_open_replays_wal_past_checkpoint(self, tmp_path):
        waldir = str(tmp_path / "wal")
        db = Database(page_size=512, wal_dir=waldir)
        heap = db.create_heap_table("t", Schema([("k", "int32")]))
        heap.insert_many([(i,) for i in range(5)])
        image = db.checkpoint()
        heap.insert_many([(i,) for i in range(5, 9)])
        db.commit()  # durable in the WAL, never flushed to the image
        # no close(): simulate an abrupt exit after the commit

        reopened = Database.open(image, wal_dir=waldir)
        assert [r[0] for r in reopened.table("t").scan()] == list(range(9))
        reopened.close()

    def test_fresh_database_rejects_used_disk(self):
        disk = SimulatedDisk(page_size=512)
        disk.allocate(1)
        with pytest.raises(CatalogError, match="attach"):
            Database(disk=disk)


class TestEngineAttach:
    def test_full_cube_roundtrip(self, tmp_path):
        schema = cube_schema_for(CONFIG)
        engine = OlapEngine(page_size=1024, pool_bytes=512 * 1024)
        engine.load_cube(
            schema,
            generate_dimension_rows(CONFIG),
            generate_fact_rows(CONFIG),
            chunk_shape=CONFIG.chunk_shape,
            fact_btrees=True,
        )
        expected = engine.query(QUERY, backend="array").rows
        engine.db.pool.flush_all()
        path = str(tmp_path / "cube.img")
        engine.db.disk.save(path)

        reopened = OlapEngine(db=Database.attach(SimulatedDisk.load(path)))
        state = reopened.attach_cube(schema)
        assert state.available_backends() == {"array", "starjoin", "bitmap"}
        assert state.btree_dims and not state.indices_stale
        for backend in ("array", "starjoin"):
            assert reopened.query(QUERY, backend=backend).rows == expected

    def test_attach_relational_only_cube(self, tmp_path):
        schema = cube_schema_for(CONFIG)
        engine = OlapEngine(page_size=1024, pool_bytes=512 * 1024)
        engine.load_cube(
            schema,
            generate_dimension_rows(CONFIG),
            generate_fact_rows(CONFIG),
            backends=("relational",),
        )
        engine.db.pool.flush_all()
        path = str(tmp_path / "rel.img")
        engine.db.disk.save(path)

        reopened = OlapEngine(db=Database.attach(SimulatedDisk.load(path)))
        state = reopened.attach_cube(schema)
        assert state.array is None
        assert reopened.query(QUERY, backend="starjoin").rows
