"""``FactFile.records`` reads an extent per pool call as its page loop did.

``records()`` asks the pool for each extent's pages in one
``PageFile.read_run`` (``BufferPool.get_run``, which is defined as the
loop of ``get``).  Twin fact files over twin pools take the same random
appends, page reads, clears, flushes and commits; one side reads the
table with ``records()``, the other with the per-page loop it replaced.
The rows, the fact file's counters, the pool and disk counters, the
frames in LRU order, the disk arm and the volume must agree after every
step, and the simulated I/O time to a relative 1e-9.  On 128-byte pages
the header holds no extent entry, so the directory lives on overflow
pages, and the small pools make a read evict.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import BufferPoolError
from repro.relational import FactFile, Schema
from repro.storage import BufferPool, FileManager, SimulatedDisk, WriteAheadLog
from tests.storage.test_pool_model import PAGE, _observable

SCHEMA = Schema([("k", "int32"), ("m", "int64")])  # 12-byte records, 10 a page


def records_by_page(pfile, fact):
    """The per-page ``records()``: one pool ``get`` per page."""
    records = np.empty(len(fact), dtype=fact.schema.codec.dtype)
    raw = memoryview(records.view(np.uint8))
    size, per_page = fact.record_size, fact.records_per_page
    for page_no, done in enumerate(range(0, len(fact), per_page)):
        take = min(per_page, len(fact) - done) * size
        raw[done * size : done * size + take] = memoryview(pfile.read(page_no))[:take]
        fact.counters.add("fact_pages_scanned")
    return records


@st.composite
def sequences(draw):
    ops, rows = [], 0
    for _ in range(draw(st.integers(1, 30))):
        kind = draw(st.sampled_from(
            ["append", "records", "records", "read", "clear", "flush", "commit"]
        ))
        if kind == "append":
            count = draw(st.integers(1, 45))
            ops.append(("append", rows, count))
            rows += count
        elif kind == "read":
            if rows:
                ops.append(("read", draw(st.integers(0, -(-rows // 10) - 1))))
        else:
            ops.append((kind,))
    return ops


def apply(fm, fact, op, by_extent):
    try:
        if op[0] == "append":
            start, count = op[1:]
            fact.append_many((k, k * 7 - 3) for k in range(start, start + count))
            return None
        if op[0] == "records":
            pfile = fm.open("f")  # on both sides: the loop reads through it
            got = fact.records() if by_extent else records_by_page(pfile, fact)
            return got.tobytes()
        if op[0] == "read":
            return bytes(fm.open("f").read(op[1]))
        if op[0] == "clear":
            return fm.pool.clear()
        if op[0] == "flush":
            return fm.pool.flush_all()
        return fm.pool.commit()
    except BufferPoolError as exc:
        return ("BufferPoolError", str(exc))


@settings(max_examples=150, deadline=None)
@given(
    sequences(),
    # a no-steal pool of a few frames fills with dirty pages on an append
    st.sampled_from([(2, False), (3, False), (5, False), (64, False), (64, True)]),
    st.sampled_from([1, 2, 4]),
)
def test_records_is_the_loop_of_pages(ops, pool_shape, extent_pages):
    frames, with_wal = pool_shape
    twins = []
    for _ in range(2):
        pool = BufferPool(
            SimulatedDisk(page_size=PAGE),
            capacity_bytes=frames * PAGE,
            wal=WriteAheadLog() if with_wal else None,
        )
        fm = FileManager(pool)
        twins.append((fm, FactFile.create(fm, "f", SCHEMA, extent_pages=extent_pages)))
    for op in ops:
        by_extent, by_page = (
            apply(fm, fact, op, by_extent=side == 0) for side, (fm, fact) in enumerate(twins)
        )
        assert by_extent == by_page, op
        (seen_extent, io_extent), (seen_page, io_page) = (
            _observable(fm.pool) for fm, _ in twins
        )
        assert seen_extent == seen_page, op
        assert io_extent == pytest.approx(io_page, rel=1e-9), op
        assert twins[0][1].counters.snapshot() == twins[1][1].counters.snapshot(), op
