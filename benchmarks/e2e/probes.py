"""Micro-probes: one number per layer, measured on the built store.

Each probe times a handful of calls into one layer's public functions
and returns its metric's value.  :func:`run_probes` runs all of them in
rounds (so one probe's repeats are spread over the probing window, not
bunched in one host-speed spell) and keeps, per metric, the best round:
the smallest time, the largest rate.

The array-side probes use the workload's own ``paper``-scale array with
a warm pool and no chunk cache.  The relational probes (bitmap lookup,
fact-file scan, star join) use a ``small``-scale array+relational cube
built for them, because only ``select_cold`` has relational structures
at ``paper`` scale and a 640 000-tuple star join would eat the whole
probing window.
"""

from __future__ import annotations

import contextlib
import http.client
import itertools
import json
import shutil
import tempfile
import time

import numpy as np

from benchmarks.e2e.contain import every_cpu
from benchmarks.e2e.store import MODEL_PATH

#: metric -> unit, for every probe below
PROBE_UNITS = {
    "core.decode.us_per_chunk": "us",
    "core.read_chunk_warm_us": "us",
    "core.scan.vectorized_mcells_per_s": "Mcells/s",
    "core.scan.interpreted_mcells_per_s": "Mcells/s",
    "core.accumulator.add_many_mcells_per_s": "Mcells/s",
    "core.accumulator.merge_us": "us",
    "index.btree.search_us": "us",
    "index.bitmap.bitmap_for_us": "us",
    "storage.pool.get_hit_us": "us",
    "storage.pool.get_miss_us": "us",
    "storage.lob.read_us_per_kb": "us/KB",
    "storage.wal.commit_ms": "ms",
    "relational.fact_file.scan_krows_per_s": "krows/s",
    "relational.starjoin.q1_ms": "ms",
    "serve.fingerprint_us": "us",
    "serve.execute_hit_us": "us",
    "shard.local1.q1_ms": "ms",
    "shard.thread2.q1_ms": "ms",
    "shard.process2.q1_ms": "ms",
    "api.parse_us": "us",
    "api.rollup.scan_us": "us",
    "api.json_encode_us_per_kb": "us/KB",
    "api.http_roundtrip_us": "us",
    "api.rollup.refresh_wait_ms": "ms",
    "obs.span_us": "us",
    "obs.profile_queries_tax_ratio": "ratio",
}


def _timed(call, repeats: int = 1) -> float:
    """Seconds per call, over ``repeats`` back-to-back calls."""
    started = time.perf_counter()
    for _ in range(repeats):
        call()
    return (time.perf_counter() - started) / repeats


class Probes:
    """Holds what the probes share; one method per metric."""

    def __init__(self, stack):
        from repro.api.model import load_model
        from repro.api.server import ApiEndpoint, ApiServer, RequestParser
        from repro.bench.harness import (
            bench_settings,
            build_cube_engine,
            query1_for,
        )
        from repro.core.consolidate import ConsolidationSpec, ResultAccumulator
        from repro.data.datasets import dataset1
        from repro.data.generator import cube_schema_for
        from repro.olap.star_schema import bitmap_index_name, fact_table_name
        from repro.serve import QueryService, ServiceConfig

        self.engine = stack.engine
        self.array = self.engine.cube(stack.cube).array
        self.q1 = query1_for(stack.config)
        self.chunk_nos = list(range(min(8, self.array.geometry.n_chunks)))
        self.oids = [self.array.directory.entry(c)[0] for c in self.chunk_nos]
        self.payloads = [self.array.chunks.read(oid) for oid in self.oids]
        specs = [
            ConsolidationSpec.level(f"h{d}1")
            for d in range(self.array.geometry.ndim)
        ]
        self.new_accumulator = lambda: ResultAccumulator(self.array, specs, "sum")
        rng = np.random.default_rng(0)
        total = self.new_accumulator().total_cells
        self.linear = rng.integers(0, total, size=65536, dtype=np.int64)
        self.values = rng.integers(1, 101, size=(65536, 1), dtype=np.int64)

        # the relational side: a small cube of its own
        aux_config = dataset1("small")[1]
        self.aux = build_cube_engine(aux_config, bench_settings("small"))
        aux_schema = cube_schema_for(aux_config)
        self.aux_q1 = query1_for(aux_config)
        self.aux_bitmap = self.aux.db.bitmap(
            bitmap_index_name(aux_schema, "dim0", "h01")
        )
        self.aux_fact = self.aux.db.table(fact_table_name(aux_schema))

        # a serving stack of the probes' own on the workload's engine
        self.service = QueryService(self.engine, ServiceConfig(max_workers=1))
        self.plain_service = QueryService(
            self.engine, ServiceConfig(max_workers=1, profile_queries=False)
        )
        model = load_model(MODEL_PATH, scale=stack.scale)
        self.logical = model.cube("sales")
        self.endpoint = ApiEndpoint(self.engine, self.service, model)
        self.server = ApiServer(self.endpoint).start()
        self.parser = RequestParser(self.logical)
        self.rollup = next(
            r for r in self.logical.rollups if r.name == "prod_store"
        )
        self.wal_dir = tempfile.mkdtemp(prefix="probe-wal-")
        self.service.execute(self.q1)
        self.plain_service.execute(self.q1)
        # first sharded calls deploy worker pools and volume images
        for shards, executor in ((2, "thread"), (2, "process")):
            self._sharded(shards, executor)

    def close(self) -> None:
        self.server.stop()
        self.endpoint.close()
        self.plain_service.close()
        self.service.close()
        self.aux.db.close()
        shutil.rmtree(self.wal_dir, ignore_errors=True)

    @contextlib.contextmanager
    def _no_chunk_cache(self):
        """The services above attached their decoded-chunk cache to the
        array; the array-side probes measure the path beneath it."""
        cache, self.array.chunk_cache = self.array.chunk_cache, None
        try:
            yield
        finally:
            self.array.chunk_cache = cache

    # -- core ---------------------------------------------------------------------

    def _decode(self) -> float:
        from repro.core.compression import decode_chunk

        array = self.array
        cells = array.geometry.chunk_cells

        def call():
            for payload in self.payloads:
                decode_chunk(payload, cells, array.n_measures, array.dtype)

        return _timed(call) / len(self.payloads) * 1e6

    def _read_chunk_warm(self) -> float:
        def call():
            for chunk_no in self.chunk_nos:
                self.array.read_chunk(chunk_no)

        with self._no_chunk_cache():
            call()  # fault the pages in
            return _timed(call) / len(self.chunk_nos) * 1e6

    def _scan(self, mode: str, chunk_nos) -> float:
        from repro.core.consolidate import scan_chunk_range

        accumulator = self.new_accumulator()
        with self._no_chunk_cache():
            started = time.perf_counter()
            cells = scan_chunk_range(self.array, accumulator, chunk_nos, mode)
            return cells / (time.perf_counter() - started) / 1e6

    def _add_many(self) -> float:
        accumulator = self.new_accumulator()
        seconds = _timed(lambda: accumulator.add_many(self.linear, self.values))
        return len(self.linear) / seconds / 1e6

    def _merge(self) -> float:
        left, right = self.new_accumulator(), self.new_accumulator()
        left.add_many(self.linear, self.values)
        right.add_many(self.linear, self.values)
        return _timed(lambda: left.merge_from(right)) * 1e6

    # -- index / relational -------------------------------------------------------

    def _btree_search(self) -> float:
        tree = self.array.attribute_index(0, "h01")
        return _timed(lambda: tree.search("AA3"), 20) * 1e6

    def _bitmap_for(self) -> float:
        return _timed(lambda: self.aux_bitmap.bitmap_for("AA3"), 5) * 1e6

    def _fact_scan(self) -> float:
        started = time.perf_counter()
        rows = sum(1 for _ in itertools.islice(self.aux_fact.scan(), 5000))
        return rows / (time.perf_counter() - started) / 1e3

    def _starjoin(self) -> float:
        return _timed(
            lambda: self.aux.query(self.aux_q1, backend="starjoin", cold=False)
        ) * 1e3

    # -- storage --------------------------------------------------------------------

    def _pool_hit(self) -> float:
        pool = self.engine.db.pool
        page = self.array.chunks.first_page(self.oids[0])
        pool.get(page)
        return _timed(lambda: pool.get(page), 1000) * 1e6

    def _pool_miss(self) -> float:
        pool = self.engine.db.pool
        first = self.array.chunks.first_page(self.oids[0])
        pages = self.array.chunks.object_pages(self.oids[0])
        pool.clear()
        started = time.perf_counter()
        for page in range(first, first + pages):
            pool.get(page)
        return (time.perf_counter() - started) / pages * 1e6

    def _lob_read(self) -> float:
        store = self.array.chunks
        store.read(self.oids[0])
        seconds = _timed(lambda: store.read(self.oids[0]), 4)
        return seconds * 1e6 / (len(self.payloads[0]) / 1024)

    def _wal_commit(self) -> float:
        """One write-sized transaction on a log of its own: 12 page
        images (a chunk's worth) and the commit marker's fsync."""
        from repro.storage.wal import WriteAheadLog

        image = bytes(self.engine.db.disk.page_size)
        with WriteAheadLog(tempfile.mkdtemp(dir=self.wal_dir)) as wal:
            def call():
                for page in range(12):
                    wal.log_page(page, image)
                wal.log_commit()

            return _timed(call, 3) * 1e3

    # -- serve / shard ----------------------------------------------------------------

    def _fingerprint(self) -> float:
        from repro.serve.fingerprint import query_fingerprint

        return _timed(lambda: query_fingerprint(self.q1), 100) * 1e6

    def _execute_hit(self, service=None) -> float:
        service = service or self.service
        return _timed(lambda: service.execute(self.q1), 50) * 1e6

    def _sharded(self, shards: int, executor: str) -> float:
        # the run is pinned to one CPU; shards are what a second one is for
        with every_cpu(), self._no_chunk_cache():
            return _timed(
                lambda: self.engine.query(
                    self.q1, backend="array", cold=False,
                    shards=shards, executor=executor,
                )
            ) * 1e3

    def _profile_tax(self) -> float:
        return self._execute_hit(self.service) / self._execute_hit(
            self.plain_service
        )

    # -- api / obs ----------------------------------------------------------------------

    def _parse(self) -> float:
        params = {
            "drilldown": "dim0:h01,dim1:h11",
            "cut": "dim2.h21:AA1;AA2",
            "aggregate": "max",
        }
        return _timed(lambda: self.parser.from_params(params), 100) * 1e6

    def _routed_request(self):
        return self.endpoint.aggregate(
            "sales", lambda parser: parser.from_params({"drilldown": "dim0:h01"})
        )[1]

    def _settle(self) -> None:
        """Until the probed grain is fresh (see ``Runner._settle_refreshes``
        for why the router is asked and its counters are not)."""
        router = self.endpoint.router
        while router.try_rows(self.logical, self.rollup, "sum") is None:
            time.sleep(0.001)

    def _refresh_wait(self) -> float:
        """From a request that finds its grain stale until the grain is
        rebuilt, with grains and result cache as empty as a write
        leaves them.  (The request's own base fallback and the rebuild
        queue on the same service worker in either order, so the two are
        timed together.)"""
        self.endpoint.router.reclaim_grains(0)
        self.service.results.clear()
        started = time.perf_counter()
        self._routed_request()
        self._settle()
        return (time.perf_counter() - started) * 1e3

    def _rollup_scan(self) -> float:
        router = self.endpoint.router
        rows = router.rows_for(self.logical, self.rollup, "sum")
        return _timed(
            lambda: router.scan(
                self.logical, self.rollup, rows, [("dim0", "h01")], [], "sum", [0]
            ),
            5,
        ) * 1e6

    def _json_encode(self) -> float:
        payload = self._routed_request()
        size = len(json.dumps(payload))
        return _timed(lambda: json.dumps(payload), 20) * 1e6 / (size / 1024)

    def _http_roundtrip(self) -> float:
        def call():
            connection = http.client.HTTPConnection(
                self.server.host, self.server.port, timeout=30
            )
            try:
                connection.request("GET", "/healthz")
                connection.getresponse().read()
            finally:
                connection.close()

        return _timed(call, 5) * 1e6

    def _span(self) -> float:
        from repro.obs.tracer import Tracer

        tracer = Tracer(registry=self.engine.db.metrics)

        def call():
            with tracer.span("probe"):
                pass

        return _timed(call, 100) * 1e6

    # -- the table ------------------------------------------------------------------------

    def table(self) -> dict:
        """metric -> zero-argument probe."""
        return {
            "core.decode.us_per_chunk": self._decode,
            "core.read_chunk_warm_us": self._read_chunk_warm,
            "core.scan.vectorized_mcells_per_s": lambda: self._scan(
                "vectorized", self.chunk_nos
            ),
            "core.scan.interpreted_mcells_per_s": lambda: self._scan(
                "interpreted", self.chunk_nos[:1]
            ),
            "core.accumulator.add_many_mcells_per_s": self._add_many,
            "core.accumulator.merge_us": self._merge,
            "index.btree.search_us": self._btree_search,
            "index.bitmap.bitmap_for_us": self._bitmap_for,
            "storage.pool.get_hit_us": self._pool_hit,
            "storage.pool.get_miss_us": self._pool_miss,
            "storage.lob.read_us_per_kb": self._lob_read,
            "storage.wal.commit_ms": self._wal_commit,
            "relational.fact_file.scan_krows_per_s": self._fact_scan,
            "relational.starjoin.q1_ms": self._starjoin,
            "serve.fingerprint_us": self._fingerprint,
            "serve.execute_hit_us": self._execute_hit,
            "shard.local1.q1_ms": lambda: self._sharded(1, "local"),
            "shard.thread2.q1_ms": lambda: self._sharded(2, "thread"),
            "shard.process2.q1_ms": lambda: self._sharded(2, "process"),
            "api.parse_us": self._parse,
            "api.rollup.scan_us": self._rollup_scan,
            "api.json_encode_us_per_kb": self._json_encode,
            "api.http_roundtrip_us": self._http_roundtrip,
            "api.rollup.refresh_wait_ms": self._refresh_wait,
            "obs.span_us": self._span,
            "obs.profile_queries_tax_ratio": self._profile_tax,
        }


def best(metric: str, samples: list[float]) -> float:
    """The round to report: the largest rate, the median ratio, the
    smallest time (host noise only ever slows a probe down)."""
    unit = PROBE_UNITS[metric]
    if unit == "ratio":
        return sorted(samples)[len(samples) // 2]
    return max(samples) if unit.endswith("/s") else min(samples)


def run_probes(stack, budget_s: float, min_rounds: int, max_rounds: int) -> dict:
    """Run every probe for ``min_rounds`` rounds, then more while the
    budget lasts; returns ``{metric: best value}``."""
    started = time.perf_counter()
    probes = Probes(stack)
    try:
        table = probes.table()
        samples: dict[str, list[float]] = {metric: [] for metric in table}
        rounds = 0
        while rounds < min_rounds or (
            rounds < max_rounds and time.perf_counter() - started < budget_s
        ):
            for metric, probe in table.items():
                samples[metric].append(probe())
            rounds += 1
    finally:
        probes.close()
    return {metric: best(metric, taken) for metric, taken in samples.items()}
