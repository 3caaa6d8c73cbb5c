"""``chunks_read`` means one thing: a chunk payload fetched from the store.

However a consolidation is run — one scan or scattered over 2 or 4
shards, inline or on threads, cold or warm, through the database's
decoded-chunk cache or around it — ``result.stats`` bills the same ``chunks_read``,
``chunk_bytes_read`` and ``cells_scanned`` for the same state of the
caches.  A decoded-chunk-cache hit is ``chunk_cache.hits``; it fetches
nothing and is not a read.  (The sharded path used to count a chunk per
visit, so a warm cached query read "8 chunks, 0 bytes" at ``shards=2``
and nothing at ``shards=1``.)
"""

import pytest

from repro.core.meta import NO_CHUNK
from repro.olap import ConsolidationQuery

KEYS = ("chunks_read", "chunk_bytes_read", "cells_scanned")
INLINE = [
    (shards, executor)
    for shards in (1, 2, 4)
    for executor in ("local", "thread")
]


def query():
    return ConsolidationQuery.build(
        "cube", group_by={"dim0": "h01", "dim1": "h11"}
    )


def billed(result):
    return {key: result.stats.get(key, 0) for key in KEYS}


def stored(array):
    """What a full scan fetches, read off the chunk directory."""
    entries = [
        e for e in array.chunk_directory().tolist() if e[0] != NO_CHUNK and e[2]
    ]
    return {
        "chunks_read": len(entries),
        "chunk_bytes_read": sum(length for _, length, _ in entries),
        "cells_scanned": sum(count for _, _, count in entries),
    }


@pytest.fixture
def array(engine):
    array = engine.cube("cube").array
    assert array.chunk_cache is engine.db.chunks
    yield array
    array.chunk_cache = engine.db.chunks


@pytest.mark.parametrize("shards,executor", INLINE)
def test_without_a_chunk_cache_every_run_fetches_every_chunk(
    engine, array, shards, executor
):
    expected = stored(array)
    array.chunk_cache = None  # every read goes around the cache
    for cold in (True, False):
        result = engine.query(
            query(), backend="array", shards=shards, executor=executor, cold=cold
        )
        assert billed(result) == expected, f"cold={cold}"


@pytest.mark.parametrize("shards,executor", INLINE)
def test_a_warm_cached_run_fetches_nothing(engine, array, shards, executor):
    expected = stored(array)
    cache = array.chunk_cache
    cold = engine.query(
        query(), backend="array", shards=shards, executor=executor, cold=True
    )
    assert billed(cold) == expected
    # a cold run fills nothing, a thread fan-out's excepted: the first
    # warm run of the others fetches what the second finds cached
    engine.query(
        query(), backend="array", shards=shards, executor=executor, cold=False
    )
    hits_before = cache.counters.get("chunk_cache.hits")
    warm = engine.query(
        query(), backend="array", shards=shards, executor=executor, cold=False
    )
    assert billed(warm) == {
        "chunks_read": 0,
        "chunk_bytes_read": 0,
        "cells_scanned": expected["cells_scanned"],
    }
    assert (
        cache.counters.get("chunk_cache.hits") - hits_before
        == array.geometry.n_chunks
    )
    assert warm.rows == cold.rows


@pytest.mark.parametrize("shards", [2, 4])
def test_process_workers_agree_on_a_cold_run(engine, array, shards):
    result = engine.query(
        query(), backend="array", shards=shards, executor="process", cold=True
    )
    assert billed(result) == stored(array)
