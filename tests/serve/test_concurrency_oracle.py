"""The concurrency oracle: N threads == one serial replay, no stale reads.

Eight client threads issue a mixed read/write workload through one
:class:`~repro.serve.service.QueryService`.  Barriers phase each round
(everyone reads, then one writer mutates) so the schedule is
deterministic; a second, identical engine replays the same schedule
serially.  Every row set observed concurrently must equal the serial
replay's — a single stale read (a cached result surviving a write)
breaks the equality.
"""

import threading
from concurrent.futures import ThreadPoolExecutor

from repro.bench import query1_for, query2_for, query3_for
from repro.serve import QueryService, ServiceConfig

from .conftest import CONFIG, fresh_engine

N_THREADS = 8
ROUNDS = 3
QUERIES = [query1_for(CONFIG), query2_for(CONFIG), query3_for(CONFIG)]


def writes_for(round_no):
    """The mutation applied at the end of one round (deterministic)."""
    return [(round_no, 0, round_no % 3, 1_000 * (round_no + 1))]


def serial_replay():
    """Round-by-round expected rows on a fresh, identical engine."""
    engine = fresh_engine()
    expected = []
    for round_no in range(ROUNDS):
        expected.append([engine.query(q).rows for q in QUERIES])
        engine.append_facts(CONFIG.name, writes_for(round_no))
    return expected


def test_concurrent_mixed_workload_matches_serial_replay():
    expected = serial_replay()
    engine = fresh_engine()
    barrier = threading.Barrier(N_THREADS)
    config = ServiceConfig(max_workers=N_THREADS)

    with QueryService(engine, config) as service:

        def client(thread_no):
            observed = []
            for round_no in range(ROUNDS):
                rows = [service.execute(q).rows for q in QUERIES]
                observed.append(rows)
                barrier.wait()
                if thread_no == 0:
                    service.append_facts(CONFIG.name, writes_for(round_no))
                barrier.wait()
            return observed

        with ThreadPoolExecutor(max_workers=N_THREADS) as pool:
            per_thread = list(pool.map(client, range(N_THREADS)))
        stats = service.stats()

    for observed in per_thread:
        assert observed == expected

    # the cache worked: each round's queries compute at most once per
    # (round, query); everything else is a hit
    lookups = stats["result_cache.hits"] + stats["result_cache.misses"]
    assert lookups >= N_THREADS * ROUNDS * len(QUERIES)
    assert stats["result_cache.hits"] > 0
    # every round's write staled the previous round's entries: the next
    # round's lookups dropped them and recomputed, never served them
    assert stats["serve.writes"] == ROUNDS
    assert stats["result_cache.stale_drops"] > 0
    assert stats.get("serve.rejected", 0) == 0


def test_write_invalidates_only_the_changed_generation():
    """A write stales exactly the entries whose cube generation changed —
    the next lookup drops one and recomputes, and the entry recomputed
    afterwards lives at the new generation and keeps hitting."""
    engine = fresh_engine()
    with QueryService(engine) as service:
        service.execute(QUERIES[0])
        service.append_facts(CONFIG.name, writes_for(0))
        recomputed = service.execute(QUERIES[0])
        assert "result_cache_hit" not in recomputed.stats
        assert service.stats()["result_cache.stale_drops"] == 1
        hit = service.execute(QUERIES[0])
        assert hit.stats["result_cache_hit"] == 1.0
        assert hit.rows == recomputed.rows
