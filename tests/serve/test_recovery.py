"""Recovery-aware serving: retries, degraded mode, recover_cube()."""

import threading

import pytest

from repro.errors import (
    DegradedError,
    PermanentError,
    RetryExhaustedError,
    SimulatedCrash,
    TransientError,
)
from repro.olap.engine import OlapEngine
from repro.olap.model import CubeSchema, DimensionDef, MeasureDef
from repro.olap.query import ConsolidationQuery
from repro.relational.catalog import Database
from repro.serve import QueryService, ServiceConfig
from repro.storage.crashpoints import FaultPlan, fault_plan
from repro.storage.faults import FaultyDisk, FaultyWAL

CUBE = "served"
QUERY = ConsolidationQuery.build(CUBE, group_by={"x": "xk", "y": "yk"})
DEGRADING = ConsolidationQuery.build(CUBE, group_by={"y": "yk"})

# A miss runs warm: a test whose miss must reach the (faulty) disk
# empties the pool and the chunk cache first (``db.cold_cache()``).  The
# service's three retries sleep 1, 2 and 4 ms.  An installed fault plan
# reaches every thread that calls the service, so every miss here goes
# through ``QueryService.execute``.
FAST_RETRY = ServiceConfig(max_workers=2)


def build_engine(tmp_path=None):
    """A small cube on a FaultyDisk (+ file-backed FaultyWAL if a path)."""
    disk = FaultyDisk(page_size=1024)
    wal = None
    if tmp_path is not None:
        wal = FaultyWAL(str(tmp_path / "wal"))
    db = Database(pool_bytes=256 * 1024, disk=disk, wal=wal)
    engine = OlapEngine(db)
    schema = CubeSchema(
        CUBE,
        dimensions=(
            DimensionDef("x", key="xk", levels=(("xg", "str:4"),)),
            DimensionDef("y", key="yk", levels=(("yg", "str:4"),)),
        ),
        measures=(MeasureDef("m", "int64"),),
    )
    engine.load_cube(
        schema,
        {
            "x": [(i, f"g{i % 2}") for i in range(6)],
            "y": [(j, f"h{j % 2}") for j in range(4)],
        },
        [(i, j, 10 * i + j) for i in range(3) for j in range(3)],
        chunk_shape=(3, 2),
        backends=("array", "relational"),
        bitmap_attrs=[],
    )
    return engine


def degrade(service, query=DEGRADING):
    """Exhaust one miss's retry budget, which degrades the cube."""
    service.engine.db.cold_cache()
    with fault_plan(FaultPlan(transient_read_errors=10_000)):
        with pytest.raises(RetryExhaustedError):
            service.execute(query, "array")
    assert service.is_degraded(CUBE)


class TestRetries:
    def test_transient_faults_are_retried_to_success(self):
        engine = build_engine()
        with QueryService(engine, FAST_RETRY) as service:
            engine.db.cold_cache()
            plan = FaultPlan(transient_read_errors=2)
            with fault_plan(plan):
                result = service.execute(QUERY, "array")
            assert result.rows
            stats = service.stats()
            assert stats["serve.transient_faults"] >= 1
            assert stats["serve.retries"] >= 1
            assert not service.is_degraded(CUBE)

    def test_retry_exhaustion_degrades_the_cube(self):
        engine = build_engine()
        with QueryService(engine, FAST_RETRY) as service:
            degrade(service, QUERY)
            assert service.degraded_cubes() == [CUBE]
            assert service.stats()["serve.retries_exhausted"] == 1

    def test_retry_exhausted_error_is_permanent(self):
        assert issubclass(RetryExhaustedError, PermanentError)
        assert issubclass(DegradedError, TransientError)

    def test_backoff_sleeps_without_the_engine_lock(self, monkeypatch):
        # regression: the backoff sleep used to run inside _engine_lock,
        # stalling every queued query on every cube while one cube
        # retried transient faults
        engine = build_engine()
        with QueryService(engine, FAST_RETRY) as service:
            held_during_sleep = []

            def probing_sleep(_delay):
                # another thread takes the engine only if the sleeper
                # does not hold it
                prober = threading.Thread(target=service.explain, args=(QUERY,))
                prober.start()
                prober.join(timeout=2.0)
                held_during_sleep.append(prober.is_alive())

            monkeypatch.setattr(
                "repro.serve.service.time.sleep", probing_sleep
            )
            engine.db.cold_cache()
            with fault_plan(FaultPlan(transient_read_errors=2)):
                result = service.execute(QUERY, "array")
            assert result.rows
            assert held_during_sleep  # the retry loop did back off
            assert not any(held_during_sleep)


class TestDegradedMode:
    def degraded_service(self):
        engine = build_engine()
        service = QueryService(engine, FAST_RETRY)
        warm = service.execute(QUERY, "array")  # populate the cache
        degrade(service)
        return service, warm

    def test_cache_hits_still_served(self):
        service, warm = self.degraded_service()
        with service:
            result = service.execute(QUERY, "array")
            assert sorted(result.rows) == sorted(warm.rows)
            assert result.stats.get("result_cache_hit") == 1.0

    def test_misses_rejected_with_degraded_error(self):
        service, _ = self.degraded_service()
        other = ConsolidationQuery.build(CUBE, group_by={"x": "xk"})
        with service:
            with pytest.raises(DegradedError):
                service.execute(other, "array")
            assert service.stats()["serve.degraded_rejections"] == 1

    def test_writes_rejected_while_degraded(self):
        service, _ = self.degraded_service()
        with service:
            with pytest.raises(DegradedError):
                service.write_cell(CUBE, (5, 3), (999,))
            with pytest.raises(DegradedError):
                service.append_facts(CUBE, [(5, 3, 999)])
            with pytest.raises(DegradedError):
                service.rebuild_array(CUBE)

    def test_degradation_metrics_exported(self):
        service, _ = self.degraded_service()
        with service:
            gauges = service.engine.db.metrics.gauge_values()
            assert gauges["serve.degraded_cubes"] == 1.0


class TestRecoverCube:
    def test_recover_lifts_degradation(self):
        engine = build_engine()
        with QueryService(engine, FAST_RETRY) as service:
            degrade(service)
            service.recover_cube(CUBE)
            assert not service.is_degraded(CUBE)
            assert service.execute(QUERY, "array").rows
            assert service.stats()["serve.recoveries"] == 1

    def test_recover_replays_committed_writes(self, tmp_path):
        engine = build_engine(tmp_path)
        with QueryService(engine, FAST_RETRY) as service:
            service.write_cell(CUBE, (5, 3), (777,))
            before = sorted(
                service.execute(QUERY, "array").rows
            )
            # an exhausted retry budget degrades the cube...
            degrade(service)
            # ...recovery drops every frame and replays the WAL
            replayed = service.recover_cube(CUBE)
            assert replayed > 0
            after = sorted(service.execute(QUERY, "array").rows)
            assert after == before
            assert (5, 3, 777) in after

    def test_recover_without_wal_rereads_disk(self):
        engine = build_engine()
        with QueryService(engine, FAST_RETRY) as service:
            service.write_cell(CUBE, (5, 3), (777,))
            degrade(service)
            assert service.recover_cube(CUBE) == 0
            rows = sorted(service.execute(QUERY, "array").rows)
            assert (5, 3, 777) in rows

    def test_recover_drops_chunks_decoded_from_uncommitted_pages(
        self, tmp_path
    ):
        engine = build_engine(tmp_path)
        array = engine.cube(CUBE).array
        with QueryService(engine, FAST_RETRY) as service:
            service.write_cell(CUBE, (5, 3), (777,))
            with fault_plan(FaultPlan(crash_at="wal.commit")):
                with pytest.raises(SimulatedCrash):
                    service.write_cell(CUBE, (5, 3), (999,))
            # the uncommitted page is in the pool; a read caches its chunk
            assert array.get_cell((5, 3))[0] == 999
            assert len(engine.db.chunks)
            service.recover_cube(CUBE)
            assert array.get_cell((5, 3))[0] == 777
            assert (5, 3, 777) in service.execute(QUERY, "array").rows

    def test_unknown_cube_rejected(self):
        engine = build_engine()
        with QueryService(engine, FAST_RETRY) as service:
            with pytest.raises(Exception):
                service.recover_cube("nope")


class TestEndToEndFaultStory:
    def test_transient_storm_then_recovery(self, tmp_path):
        """The full arc: healthy → faulty → degraded → recovered."""
        engine = build_engine(tmp_path)
        other = ConsolidationQuery.build(CUBE, group_by={"y": "yg"})
        with QueryService(engine, FAST_RETRY) as service:
            healthy = service.execute(QUERY, "array")
            engine.db.cold_cache()
            with fault_plan(FaultPlan(transient_read_errors=10_000)):
                with pytest.raises(RetryExhaustedError):
                    service.execute(other, "array")
                # degraded, but the cached query still answers
                hit = service.execute(QUERY, "array")
                assert sorted(hit.rows) == sorted(healthy.rows)
            service.recover_cube(CUBE)
            fresh = service.execute(other, "array")
            assert fresh.rows
            assert not service.is_degraded(CUBE)