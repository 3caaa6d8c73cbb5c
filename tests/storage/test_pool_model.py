"""Model-based tests of the buffer pool.

The pool must behave like a plain dict: a random sequence of new-page /
write / read / clear operations — and large objects created, read by
run and patched in place with ``LargeObjectStore.write_at`` — runs
against a tiny (heavy-eviction) pool and against an in-memory
reference; contents must agree after every step, and a patch never
changes a disk image the pool did not write.  And ``get_run`` must
behave like the loop of ``get`` it is defined as: twin pools, one
reading runs and one reading pages, stay indistinguishable.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import BufferPoolError, FileError, PageError
from repro.storage import (
    BufferPool,
    FileManager,
    LargeObjectStore,
    SimulatedDisk,
    WriteAheadLog,
)

PAGE = 128  # the smallest page a paged directory (the LOB's) works on


@st.composite
def operation_sequences(draw):
    n_ops = draw(st.integers(1, 60))
    ops = []
    n_pages = 0
    lengths: list[int] = []  # of the large objects, by OID
    for _ in range(n_ops):
        kinds = ["new", "object"]
        if n_pages:
            kinds += ["write", "read", "clear", "flush"]
        if lengths:
            kinds += ["write_at", "write_at", "object_read"]
        kind = draw(st.sampled_from(kinds))
        if kind == "new":
            ops.append(("new", draw(st.binary(min_size=PAGE, max_size=PAGE))))
            n_pages += 1
        elif kind == "object":
            payload = draw(st.binary(min_size=1, max_size=3 * PAGE))
            ops.append(("object", payload))
            lengths.append(len(payload))
        elif kind == "write_at":
            oid = draw(st.integers(0, len(lengths) - 1))
            at = draw(st.integers(0, lengths[oid] - 1))
            data = draw(st.binary(min_size=1, max_size=min(16, lengths[oid] - at)))
            ops.append(("write_at", oid, at, data))
        elif kind == "object_read":
            ops.append(("object_read", draw(st.integers(0, len(lengths) - 1))))
        elif kind == "write":
            ops.append(
                (
                    "write",
                    draw(st.integers(0, n_pages - 1)),
                    draw(st.binary(min_size=PAGE, max_size=PAGE)),
                )
            )
        elif kind == "read":
            ops.append(("read", draw(st.integers(0, n_pages - 1))))
        else:
            ops.append((kind,))
    return ops


@settings(max_examples=80, deadline=None)
@given(operation_sequences(), st.integers(1, 5))
def test_pool_matches_reference(ops, frames):
    disk = SimulatedDisk(page_size=PAGE)
    pool = BufferPool(disk, capacity_bytes=frames * PAGE)
    store = LargeObjectStore(FileManager(pool), "lob")
    reference: dict[int, bytes] = {}
    objects: list[bytearray] = []
    pages = []  # page ids raw pages got: the LOB allocates between them
    written: list[int] = []  # page ids the pool wrote back during an op
    write_page = disk.write_page
    disk.write_page = lambda page_id, image: (
        written.append(page_id),
        write_page(page_id, image),
    )
    for op in ops:
        written.clear()
        if op[0] == "new":
            page_id = pool.new_page()
            pool.write(page_id, op[1])
            reference[page_id] = op[1]
            pages.append(page_id)
        elif op[0] == "object":
            assert store.create(op[1]) == len(objects)
            objects.append(bytearray(op[1]))
        elif op[0] == "write_at":
            oid, at, data = op[1:]
            before = list(disk._pages)
            evicted = pool.counters.get("pool_evict_dirty")
            store.write_at(oid, at, data)
            objects[oid][at : at + len(data)] = data
            # the patch lands in a frame: the disk only sees evictions
            assert len(written) == pool.counters.get("pool_evict_dirty") - evicted
            for page_id, image in enumerate(before):
                if page_id not in written:
                    assert disk._pages[page_id] is image
        elif op[0] == "object_read":
            assert store.read(op[1]) == bytes(objects[op[1]])
        elif op[0] == "write":
            pool.write(pages[op[1]], op[2])
            reference[pages[op[1]]] = op[2]
        elif op[0] == "read":
            assert bytes(pool.get(pages[op[1]])) == reference[pages[op[1]]]
        elif op[0] == "clear":
            pool.clear()
        elif op[0] == "flush":
            pool.flush_all()
    # final audit: every page readable with the right contents
    for page_id, expected in reference.items():
        assert bytes(pool.get(page_id)) == expected
    for oid, payload in enumerate(objects):
        assert store.read(oid) == bytes(payload)
    pool.clear()
    for page_id, expected in reference.items():
        assert disk.read_page(page_id) == expected
    for oid, payload in enumerate(objects):
        first = store.first_page(oid)
        on_disk = b"".join(
            disk.read_page(first + i) for i in range(store.object_pages(oid))
        )
        assert on_disk[: len(payload)] == payload


# -- get_run is, by definition, the loop of get ---------------------------------
#
# Two pools over two disks take the same random operations; one side
# reads every run with ``get_run``, the other expands it into single
# ``get`` calls.  Nothing observable may differ after any step.


@st.composite
def run_sequences(draw):
    n_ops = draw(st.integers(1, 50))
    ops = []
    n_pages = 0
    pinned: list[int] = []
    kinds = [
        "new", "write", "read", "dirty", "run", "run", "run",
        "pin", "unpin", "clear", "flush", "commit",
    ]
    page_image = st.binary(min_size=PAGE, max_size=PAGE)
    for _ in range(n_ops):
        kind = "new" if n_pages == 0 else draw(st.sampled_from(kinds))
        if kind == "new":
            # count > 1 leaves never-written pages behind the first
            count = draw(st.integers(1, 4))
            ops.append(("new", count))
            n_pages += count
        elif kind == "write":
            ops.append(("write", draw(st.integers(0, n_pages - 1)), draw(page_image)))
        elif kind == "run":
            first = draw(st.integers(0, n_pages - 1))
            ops.append(("run", first, draw(st.integers(1, n_pages - first))))
        elif kind == "unpin" and pinned and draw(st.booleans()):
            ops.append(("unpin", pinned.pop(draw(st.integers(0, len(pinned) - 1)))))
        elif kind in ("read", "dirty", "pin", "unpin"):
            page_id = draw(st.integers(0, n_pages - 1))
            if kind == "pin":
                pinned.append(page_id)
            ops.append((kind, page_id, draw(st.integers(0, 255))))
        else:
            ops.append((kind,))
    return ops


def _apply(pool, op, by_run):
    """Run one operation; the bytes it returned, or the error it raised."""
    try:
        if op[0] == "new":
            return pool.new_page(op[1])
        if op[0] == "write":
            return pool.write(op[1], op[2])
        if op[0] == "read":
            return bytes(pool.get(op[1]))
        if op[0] == "dirty":
            buf = pool.get(op[1])
            buf[0] = op[2]
            pool.mark_dirty(op[1])
            return bytes(buf)
        if op[0] == "run":
            if by_run:
                buffers = pool.get_run(op[1], op[2])
            else:
                buffers = [pool.get(op[1] + i) for i in range(op[2])]
            return [bytes(buf) for buf in buffers]
        if op[0] == "pin":
            return bytes(pool.pin(op[1]))
        if op[0] == "unpin":
            return pool.unpin(op[1])
        if op[0] == "clear":
            return pool.clear()
        if op[0] == "flush":
            return pool.flush_all()
        return pool.commit()
    except BufferPoolError as exc:
        return ("BufferPoolError", str(exc))


def _observable(pool):
    disk = pool.disk.counters.snapshot()
    frames, dirty, pins = pool._frames, pool._dirty, pool._pins
    return {
        "pool": pool.counters.snapshot(),
        "disk": {k: v for k, v in disk.items() if k != "sim_io_s"},
        "frames": [  # a clean page counts as logged
            (page_id, bytes(image), page_id in dirty, dirty.get(page_id, True),
             pins.get(page_id, 0))
            for page_id, image in frames.items()
        ],
        "arm": pool.disk._last_accessed,
        "volume": list(pool.disk._pages),
        "wal": None if pool.wal is None else pool.wal.counters.snapshot(),
    }, disk.get("sim_io_s", 0.0)


@settings(max_examples=300, deadline=None)
@given(run_sequences(), st.sampled_from([1, 2, 3, 4, 5, 64]), st.booleans())
def test_get_run_is_the_loop_of_get(ops, frames, with_wal):
    twins = [
        BufferPool(
            SimulatedDisk(page_size=PAGE),
            capacity_bytes=frames * PAGE,
            wal=WriteAheadLog() if with_wal else None,
        )
        for _ in range(2)
    ]
    for op in ops:
        by_run, by_get = (
            _apply(pool, op, by_run=side == 0) for side, pool in enumerate(twins)
        )
        assert by_run == by_get, op
        (seen_run, io_run), (seen_get, io_get) = map(_observable, twins)
        assert seen_run == seen_get, op
        assert io_run == pytest.approx(io_get, rel=1e-9), op
    for pool in twins:
        pool._pins.clear()
        pool.clear()
    assert twins[0].disk._pages == twins[1].disk._pages


# -- a multi-object read is, by definition, the loop of read ------------------
#
# Twin stores over twin pools take the same random writes; one side reads
# each batch of OIDs with ``read_many``, the other with one ``read`` per
# OID.  Payloads, frames in LRU order, counter bags, the arm and the
# volume must agree after every step.  Eight directory entries fit a
# 128-byte page, so a batch of more than eight OIDs straddles one.


def pages_of(payload):
    return max(1, -(-len(payload) // PAGE))


@st.composite
def object_sequences(draw):
    n_ops = draw(st.integers(1, 40))
    ops = []
    pages: list[int] = []  # of the objects, by OID
    moved: dict[int, int] = {}  # a chunk's first OID -> its current one
    payload = st.binary(max_size=3 * PAGE)  # an empty payload is one page
    for _ in range(n_ops):
        n_objects = len(pages)
        kinds = ["object", "object", "gap"]
        if n_objects:
            kinds += ["walk", "walk", "walk", "batch", "move", "touch", "clear"]
        kind = draw(st.sampled_from(kinds))
        if kind == "object":
            data = draw(payload)
            ops.append(("object", data))
            pages.append(pages_of(data))
        elif kind == "move":  # an insert: rewritten in place, or moved
            chunk = draw(st.integers(0, n_objects - 1))
            oid = moved.get(chunk, chunk)
            data = draw(payload)
            ops.append(("move", oid, data))
            if pages_of(data) != pages[oid]:
                moved[chunk] = n_objects  # it outgrew its run
                pages.append(pages_of(data))
        elif kind == "walk":  # chunk order over a range, moves followed
            low = draw(st.integers(0, n_objects - 1))
            high = draw(st.integers(low + 1, n_objects))
            oids = [moved.get(oid, oid) for oid in range(low, high)]
            leads = draw(st.lists(st.integers(0, 7), min_size=len(oids)))
            if draw(st.booleans()):
                ops.append(("clear",))  # a cold walk
            ops.append(("read", oids, leads[: len(oids)]))
        elif kind == "batch":  # any OIDs, repeats and a bad one included
            oids = draw(st.lists(st.integers(0, n_objects), min_size=1, max_size=12))
            ops.append(("read", oids, [0] * len(oids)))
        elif kind == "touch":
            ops.append(("touch", draw(st.integers(0, n_objects - 1))))
        else:
            ops.append((kind,))
    return ops


def _apply_object_op(store, op, by_many):
    """Run one operation on ``store``; what it returned, or the error."""
    try:
        if op[0] == "object":
            return store.create(op[1])
        if op[0] == "gap":  # a page between two objects' runs
            return store.pool.new_page()
        if op[0] == "move":
            if store.rewrite(op[1], op[2]):
                return "rewritten"
            return store.create(op[2])
        if op[0] == "read":
            oids, leads = op[1], op[2]
            if by_many:
                views = store.read_many(oids, leads)
                return [bytes(view) for view in views]
            return [store.read(oid) for oid in oids]
        if op[0] == "touch":  # make one object's first page resident
            if op[1] < len(store):
                return bytes(store.pool.get(store.first_page(op[1])))
            return None
        return store.pool.clear()
    except (BufferPoolError, FileError) as exc:
        return (type(exc).__name__, str(exc))


@settings(max_examples=200, deadline=None)
@given(object_sequences(), st.integers(1, 64), st.booleans())
def test_read_many_is_the_loop_of_read(ops, frames, with_wal):
    if with_wal:  # no-steal: one frame cannot hold a new store's two pages
        frames = max(frames, 2)
    pools = [
        BufferPool(
            SimulatedDisk(page_size=PAGE),
            capacity_bytes=frames * PAGE,
            wal=WriteAheadLog() if with_wal else None,
        )
        for _ in range(2)
    ]
    stores = []
    for pool in pools:
        file_manager = FileManager(pool)
        pool.commit()
        stores.append(LargeObjectStore(file_manager, "lob"))
    for op in ops:
        by_many, by_read = (
            _apply_object_op(store, op, by_many=side == 0)
            for side, store in enumerate(stores)
        )
        assert by_many == by_read, op
        for pool in pools:
            pool.commit()  # no-steal: leave the writes evictable
        (seen_many, io_many), (seen_read, io_read) = map(_observable, pools)
        assert seen_many == seen_read, op
        assert io_many == pytest.approx(io_read, rel=1e-9), op


class TestRunReads:
    def _volume(self, n_pages, frames=64):
        disk = SimulatedDisk(page_size=PAGE)
        disk.allocate(n_pages)
        for page_id in range(n_pages):
            disk.write_page(page_id, bytes([page_id + 1]) * PAGE)
        return disk, BufferPool(disk, capacity_bytes=frames * PAGE)

    def test_fast_path_is_one_disk_access_and_shares_the_images(self):
        disk, pool = self._volume(6)
        before = disk.counters.snapshot()
        buffers = pool.get_run(1, 4)
        after = disk.counters.snapshot()
        assert after["pages_read"] - before.get("pages_read", 0) == 4
        assert after["seeks"] - before.get("seeks", 0) == 1
        assert all(buf is disk._pages[1 + i] for i, buf in enumerate(buffers))
        assert list(pool._frames) == [1, 2, 3, 4]

    def test_resident_page_splits_the_run_and_costs_the_gap_jump(self):
        disk, pool = self._volume(6)
        pool.get(2)
        disk.park()
        io_before = disk.counters.get("sim_io_s")
        reads = []
        real = disk.read_run
        disk.read_run = lambda first, n: reads.append((first, n)) or real(first, n)
        pool.get_run(0, 5)
        assert reads == [(0, 2), (3, 2)]
        # 1 -> 3 is a two-page jump: read through the gap, no full seek
        model = disk.model
        expected = (
            model.access_seconds(PAGE, 0)
            + model.access_seconds(PAGE, 1)
            + model.access_seconds(PAGE, 2)
            + model.access_seconds(PAGE, 1)
        )
        assert disk.counters.get("sim_io_s") - io_before == pytest.approx(
            expected, rel=1e-9
        )
        assert list(pool._frames) == [0, 1, 2, 3, 4]
        assert pool.counters.get("pool_hits") == 1
        assert pool.counters.get("pool_misses") == 5

    def test_mutation_after_a_run_read_is_what_flush_writes(self):
        disk, pool = self._volume(3)
        shared = pool.get_run(0, 3)[1]
        assert type(shared) is bytes
        buf = pool.get(1)  # the mutable accessor un-shares the frame
        assert type(buf) is bytearray and buf == shared
        buf[:4] = b"edit"
        pool.mark_dirty(1)
        assert disk._pages[1] == bytes([2]) * PAGE  # the disk's image is untouched
        assert bytes(pool.get_run(0, 3)[1]) == b"edit" + bytes([2]) * (PAGE - 4)
        pool.flush_all()
        assert disk.read_page(1) == b"edit" + bytes([2]) * (PAGE - 4)

    def test_write_replaces_a_shared_frame(self):
        disk, pool = self._volume(2)
        pool.get_run(0, 2)
        pool.write(0, b"w" * PAGE)
        assert disk._pages[0] == bytes([1]) * PAGE
        pool.clear()
        assert disk._pages[0] == b"w" * PAGE

    def test_run_longer_than_the_pool_is_the_loop(self):
        disk, pool = self._volume(6, frames=2)
        buffers = pool.get_run(0, 6)
        assert [bytes(buf) for buf in buffers] == disk._pages
        assert list(pool._frames) == [4, 5]
        assert pool.counters.get("pool_evict_clean") == 4

    @pytest.mark.parametrize("first,n", [(4, 3), (6, 1), (-1, 2), (0, 0), (0, 7)])
    def test_disk_run_outside_the_volume_accounts_nothing(self, first, n):
        disk, _ = self._volume(6)
        before = disk.counters.snapshot(), disk._last_accessed
        with pytest.raises(PageError):
            disk.read_run(first, n)
        assert (disk.counters.snapshot(), disk._last_accessed) == before

    def test_disk_run_costs_what_the_page_reads_cost(self):
        by_run, _ = self._volume(40)
        by_page, _ = self._volume(40)
        for first, n in [(3, 5), (8, 1), (10, 12), (0, 2), (39, 1), (20, 20)]:
            images = by_run.read_run(first, n)
            assert images == [by_page.read_page(first + i) for i in range(n)]
            assert by_run._last_accessed == by_page._last_accessed
        a, b = by_run.counters.snapshot(), by_page.counters.snapshot()
        assert a.pop("sim_io_s") == pytest.approx(b.pop("sim_io_s"), rel=1e-9)
        assert a == b

    def test_never_written_pages_read_as_zeros(self):
        disk = SimulatedDisk(page_size=PAGE)
        disk.allocate(3)
        disk.write_page(1, b"x" * PAGE)
        assert disk.read_run(0, 3) == [bytes(PAGE), b"x" * PAGE, bytes(PAGE)]
