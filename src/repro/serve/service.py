"""`QueryService`: the concurrent serving façade over `OlapEngine`.

The engine itself is deliberately single-threaded (its buffer pool,
tracer spans and non-blocking lock manager assume one caller), so the
service layers concurrency *around* it:

- how a query runs is the ``backend`` name its call passes (``"auto"``
  by default); :class:`ServiceConfig` holds only serving knobs, no
  execution defaults;
- a :class:`~repro.serve.result_cache.ResultCache` serves repeated
  queries without touching the engine at all: a hit takes no in-flight
  slot, no engine lock and no registry snapshot — cache hits are the
  concurrency win;
- every query runs on the thread that calls :meth:`~QueryService.execute`;
  misses serialize behind one engine lock, and admission control
  rejects a miss beyond ``max_workers`` admitted ones with
  :class:`~repro.errors.AdmissionError` (backpressure, not unbounded
  queueing), so a saturated service still answers cached queries;
- every miss runs warm, through the database's decoded-chunk cache
  (:class:`~repro.storage.chunk_cache.ChunkCache`);
- every write path (:meth:`write_cell`, :meth:`append_facts`,
  :meth:`rebuild_array`) bumps the cube generation, and the result
  cache drops an entry computed at an older generation when a lookup
  finds it: one staleness rule;
- the service is **recovery-aware**: engine calls that raise a
  :class:`~repro.errors.TransientError` retry with exponential
  backoff, a :class:`~repro.errors.PermanentError` (or an exhausted
  retry budget) flips the cube into *degraded mode* — cache hits keep
  being served, misses and writes raise
  :class:`~repro.errors.DegradedError` — and :meth:`recover_cube`
  replays the WAL in place and lifts the degradation.

All cache and admission counters register in the
:class:`~repro.obs.registry.MetricsRegistry` and, like every source
there, count up for the life of the service (a window or a query is a
difference of two snapshots); queue depth / cache residency export as
gauges.

Every cache, the trace store and the engine's shared stores (the
database's decoded chunks, the one grain store) register with the
service's :class:`~repro.obs.memory.MemoryAccountant`, which
checks ``memory_budget_bytes`` each time one of them grows; the service
starts no thread of its own.

A query a declared grain covers (:mod:`repro.olap.grains`) is a query
like any other: admitted, cached, degraded-checked and traced, its
``QueryResult.route`` cached with its rows.

Every query's outcome is one record in the
:class:`~repro.obs.tracing.TraceStore` (``traces``): span tree,
fingerprint and latency, evicted only after fast traces when it ran
slow or failed.  A slow engine miss's record also carries its own plan
— the one its run built and executed, bound to the run's span tree —
in its ``plans``, so its one trace explains it without re-running or
re-planning it, and the plan lives exactly as long as that trace.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, replace

from repro.errors import (
    AdmissionError,
    DegradedError,
    PermanentError,
    RetryExhaustedError,
    TransientError,
)
from repro.obs.explain import QueryPlan
from repro.obs.memory import MemoryAccountant
from repro.obs.exporters import span_dict, span_to_dict
from repro.obs.tracer import NULL_TRACER, Span, Tracer, get_tracer, thread_tracing
from repro.obs.tracing import (
    TraceContext,
    TraceStore,
    current_trace_context,
    new_trace_context,
    trace_context,
)
from repro.olap.engine import OlapEngine, QueryResult
from repro.olap.query import ConsolidationQuery
from repro.serve.fingerprint import query_fingerprint
from repro.serve.result_cache import ResultCache
from repro.storage.wal import recover as wal_recover
from repro.util.stats import Counters, Timer

#: retries after a :class:`TransientError` before the cube degrades
RETRY_ATTEMPTS = 3
#: first retry backoff, seconds; it doubles per attempt (1, 2, 4 ms)
RETRY_BASE_S = 0.001


@dataclass(frozen=True)
class ServiceConfig:
    """Tuning knobs for one :class:`QueryService`."""

    #: misses admitted at once: one runs, the rest wait for the engine
    #: lock, and one more is rejected with :class:`AdmissionError`; a
    #: result-cache hit takes no slot
    max_workers: int = 16
    #: end-to-end latency at which a query counts as slow: the trace
    #: store evicts its trace only after every fast one, and a slow
    #: engine miss's trace carries its analyzed plan
    slow_threshold_s: float = 0.25
    #: record each query's span tree in its trace: an engine miss runs
    #: under a tracer of its own, whose per-span registry snapshots fall
    #: on misses only; a hit's one ``serve_query`` span is built from
    #: its lookup's timing.  Disable to shave those snapshots off the
    #: miss path (traces then carry no span tree and slow misses no
    #: analyzed plan)
    profile_queries: bool = True
    #: process resident-set budget across every accounted store, in
    #: bytes (0 = unbounded: accounting only, no pressure eviction).
    #: The one size setting: each cache and ring keeps its own default
    #: entry cap.  When a store's growth takes the accounted total past
    #: this, the memory accountant reclaims in cheap-to-rebuild-first
    #: order: result cache → decoded chunks → coldest grains
    memory_budget_bytes: int = 0


def _hit_attrs(query, cached: QueryResult) -> dict:
    """A hit's ``serve_query`` span attributes."""
    return {"cube": query.cube, "cache": "hit", "backend": cached.backend}


class QueryService:
    """Concurrent, cached query execution over one :class:`OlapEngine`.

    Use as a context manager or call :meth:`close` to detach the metrics
    and the memory accountant.  Mutations must go
    through the service's write methods — direct engine writes while
    queries are in flight would trip the engine's non-blocking lock
    manager (the service serializes engine access for both).
    """

    def __init__(self, engine: OlapEngine, config: ServiceConfig | None = None):
        self.engine = engine
        self.config = config or ServiceConfig()
        self.results = ResultCache()
        self.counters = Counters()
        self.traces = TraceStore(slow_threshold_s=self.config.slow_threshold_s)
        self._engine_lock = threading.RLock()
        self._admission_lock = threading.Lock()
        #: notified when the last admitted miss finishes (see close)
        self._drained = threading.Condition(self._admission_lock)
        self._in_flight = 0
        self._closed = False
        self._degraded: set[str] = set()  # guarded by _admission_lock
        self._register_metrics()
        self.memory = MemoryAccountant(
            engine.db.metrics,
            budget_bytes=self.config.memory_budget_bytes,
        )
        self._register_memory_stores()

    # -- metrics -----------------------------------------------------------

    def _register_metrics(self) -> None:
        registry = self.engine.db.metrics
        #: the names this service's sources and gauges went live under;
        #: :meth:`close` removes exactly these
        self._sources = [
            registry.register(name, counters)
            for name, counters in (
                ("serve:service", self.counters),
                ("serve:result_cache", self.results.counters),
                ("serve:traces", self.traces.counters),
            )
        ]
        self._gauges = [
            registry.register_gauge(name, fn)
            for name, fn in (
                ("serve.in_flight", lambda: float(self._in_flight)),
                ("serve.result_cache_entries", lambda: float(len(self.results))),
                ("serve.degraded_cubes", lambda: float(len(self._degraded))),
                ("serve.traces_resident", lambda: float(len(self.traces))),
            )
        ]
        # histograms are shared by name, so a service restarted over
        # the same engine continues the process's latency history
        self._histograms = {
            name: registry.register_histogram(name)
            for name in (
                "serve.query_latency_seconds",
                "serve.queue_wait_seconds",
                "serve.cache_lookup_seconds",
                "serve.admission_depth",
                "serve.recovery_seconds",
            )
        }

    def _register_memory_stores(self) -> None:
        """Wire every resident store into the memory accountant.

        Reclaim order (``cost_rank``) is cheapest-to-rebuild first:
        result cache (one engine query) → the database's decoded chunks
        (one pool read + decode each) → the engine's grains (one re-roll or walk
        each, rebuilt by the next query routed to one) → the trace
        store, whose loss costs a debugging breadcrumb but
        never a wrong answer.  Each of those stores checks the budget
        where it grows.  The buffer pool is accounted but never evicted
        from here: it enforces its own capacity bound.
        """
        memory = self.memory
        memory.register_store("result_cache", self.results, cost_rank=0)
        memory.register_store("chunk_cache", self.engine.db.chunks, cost_rank=1)
        memory.register_store("rollup_grains", self.engine.grains, cost_rank=2)
        memory.register_store("buffer_pool", self.engine.db.pool.resident_bytes)
        memory.register_store("traces", self.traces, cost_rank=5)

    def stats(self) -> dict[str, float]:
        """Cumulative service + cache counters, merged (the decoded-chunk
        cache's are the database's, shared with every service on it)."""
        merged = Counters()
        merged.merge(self.counters)
        merged.merge(self.results.counters)
        merged.merge(self.engine.db.chunks.counters)
        return merged.snapshot()

    @property
    def in_flight(self) -> int:
        """Admitted misses not yet finished (waiting + running)."""
        return self._in_flight

    # -- engine access -----------------------------------------------------

    @contextmanager
    def engine_access(self, cube: str):
        """``cube``'s loaded state, held serialized with every miss and write
        (a caller building a grain outside a query holds it); refused
        while degraded."""
        self._check_degraded(cube)
        with self._engine_lock:
            yield self.engine.cube(cube)

    # -- query path --------------------------------------------------------

    def execute(
        self,
        query: ConsolidationQuery,
        backend: str = "auto",
    ) -> QueryResult:
        """Answer one query on the calling thread.

        The caller probes the result cache once: a hit takes no
        in-flight slot.  A miss takes one and runs here.  Raises
        :class:`AdmissionError` when the service is closed, or when a
        miss finds ``max_workers`` misses already admitted.
        """
        # the trace identity is the caller's: whatever it has installed
        # (API handler, CLI, ``with trace_context(...)``), else a fresh
        # service-minted root installed for this query, so the engine's
        # spans carry it too
        trace = current_trace_context()
        if trace is not None:
            return self._answer(query, backend, trace)
        trace = new_trace_context(origin="service")
        with trace_context(trace):
            return self._answer(query, backend, trace)

    def _answer(self, query, backend: str, trace: TraceContext) -> QueryResult:
        # close() sets the flag under the admission lock and nothing
        # clears it; a close racing the probe is caught by the miss's
        # admission check below
        if self._closed:
            raise AdmissionError("service is closed")
        start = time.perf_counter()
        fingerprint = query_fingerprint(query, backend)
        cube = query.cube
        with Timer() as timer:
            cached = self.results.get(
                cube, fingerprint, self.engine.cube_generation(cube)
            )
        self._histograms["serve.cache_lookup_seconds"].observe(timer.elapsed)
        if cached is not None:
            self.counters.add("serve.admitted")
            result = self._hit(cached, timer)
            latency = time.perf_counter() - start
            # the hit's serve_query span, built as the dict the store
            # keeps: it is never opened, so it carries no I/O
            roots = (
                [span_dict("serve_query", _hit_attrs(query, cached), timer.elapsed)]
                if self.config.profile_queries
                else None
            )
            self._record_trace(trace, query, fingerprint, "ok", latency, roots)
            self._count_slow(latency)
            self._histograms["serve.query_latency_seconds"].observe(
                latency, trace_id=trace.trace_id
            )
            return result
        with self._admission_lock:
            if self._closed:
                raise AdmissionError("service is closed")
            if self._in_flight >= self.config.max_workers:
                self.counters.add("serve.rejected")
                raise AdmissionError(
                    f"{self._in_flight} queries in flight (limit "
                    f"{self.config.max_workers})"
                )
            self._in_flight += 1
            depth = self._in_flight
        self.counters.add("serve.admitted")
        self._histograms["serve.admission_depth"].observe(float(depth))
        try:
            return self._run(query, backend, fingerprint, trace)
        finally:
            with self._admission_lock:
                self._in_flight -= 1
                self._drained.notify_all()

    def _run(
        self, query, backend: str, fingerprint, trace: TraceContext
    ) -> QueryResult:
        """One admitted miss under the service's own tracer (never the
        caller's): a registry-bound one when profiling, else none."""
        start = time.perf_counter()
        tracer = (
            Tracer(registry=self.engine.db.metrics)
            if self.config.profile_queries
            else None
        )
        status = "ok"
        result = None
        try:
            with thread_tracing(tracer or NULL_TRACER):
                result = self._execute(query, backend, fingerprint)
        except Exception as exc:
            status = type(exc).__name__
            raise
        finally:
            latency = time.perf_counter() - start
            slow = result is not None and self._count_slow(latency)
            roots = plans = None
            if tracer is not None:
                roots = [span_to_dict(root) for root in tracer.roots]
                # a slow miss's record carries its run's own plan, bound
                # to its span tree; a double-checked hit has no plan
                if slow and result.plan is not None:
                    plans = [result.analyzed_plan(tracer).to_dict()]
            self._record_trace(
                trace, query, fingerprint, status, latency, roots, plans
            )
            self._histograms["serve.query_latency_seconds"].observe(
                latency, trace_id=trace.trace_id
            )
        return result

    def _record_trace(
        self, trace, query, fingerprint, status, latency_s, roots, plans=None
    ) -> None:
        """Contribute this query's outcome (and serialized span trees,
        ``None`` when unprofiled, and analyzed plans) to the store.

        The store merges by trace_id, so an API request and the queries
        it fanned out accumulate into one record.
        """
        self.traces.record(
            trace,
            name=f"query:{query.cube}",
            origin="service",
            status=status,
            latency_s=latency_s,
            roots=roots,
            plans=plans,
            attrs={"fingerprint": fingerprint, "cube": query.cube},
        )

    def _count_slow(self, latency: float) -> bool:
        """Whether an answered query ran slow, counted when it did."""
        if latency < self.traces.slow_threshold_s:
            return False
        self.counters.add("serve.slow_queries")
        return True

    def explain(
        self,
        query: ConsolidationQuery,
        backend: str = "auto",
        analyze: bool = False,
    ) -> QueryPlan:
        """EXPLAIN (optionally ANALYZE) one query through the service.

        The same ``(backend, analyze)`` signature as
        :meth:`OlapEngine.explain <repro.olap.engine.OlapEngine.explain>`.
        Serializes
        behind the engine lock like any miss; an ANALYZE run executes
        warm and its result is cached
        like a miss's, so an :meth:`execute` of the same query after it
        is a hit.  The plan is returned, not kept: a slow miss's plan
        lives in its trace.
        """
        cube = query.cube
        self._check_degraded(cube)
        with self._engine_lock:
            if analyze:
                # writes serialize behind the engine lock too, so the
                # run reads the generation it is cached at
                generation = self.engine.cube_generation(cube)
                plan, result = self.engine.explain_analyze(query, backend, cold=False)
                self.results.put(
                    cube, plan.fingerprint, generation, replace(result, plan=None)
                )
            else:
                plan = self.engine.explain(query, backend)
        self.counters.add("serve.explains")
        if analyze:
            self.counters.add("serve.explain_analyzes")
        return plan

    def _execute(self, query, backend: str, fingerprint) -> QueryResult:
        """Run one engine miss: refused while the cube is degraded, else
        serialized attempts under retry."""
        cube = query.cube
        self._check_degraded(cube)
        # each retry attempt takes the engine lock by itself, so backoff
        # sleeps never stall other cubes' waiting misses
        return self._with_retries(
            cube,
            lambda: self._execute_miss(query, backend, fingerprint),
        )

    def _execute_miss(self, query, backend: str, fingerprint):
        """One serialized attempt at an engine miss (runs under retry)."""
        cube = query.cube
        tracer = get_tracer()
        waited = time.perf_counter()
        with self._engine_lock:
            self._histograms["serve.queue_wait_seconds"].observe(
                time.perf_counter() - waited
            )
            # double-check: another miss may have computed it while
            # this one waited for the engine (or slept between attempts)
            with Timer() as timer:
                generation = self.engine.cube_generation(cube)
                cached = self.results.get(cube, fingerprint, generation)
            self._histograms["serve.cache_lookup_seconds"].observe(
                timer.elapsed
            )
            if cached is not None:
                # timed by the lookup: never opened, so no I/O and no
                # registry snapshot
                span = Span("serve_query", _hit_attrs(query, cached))
                span.duration_s = timer.elapsed
                tracer.attach(span)
                return self._hit(cached, timer)
            self._check_degraded(cube)  # may have degraded while we waited
            with tracer.span(
                "serve_query", cube=cube, cache="miss", backend=backend
            ):
                result = self.engine.query(query, backend=backend, cold=False)
                # the generation cannot have moved: writes also
                # serialize behind the engine lock.  Inside the span so
                # the insert's byte measurement attributes to the query;
                # the entry is the answer, not the plan that found it
                self.results.put(
                    cube, fingerprint, generation, replace(result, plan=None)
                )
            return result

    @staticmethod
    def _hit(cached: QueryResult, timer: Timer) -> QueryResult:
        """A cached answer, timed by the lookup that found it."""
        out = QueryResult(
            rows=cached.rows,
            backend=cached.backend,
            elapsed_s=timer.elapsed,
            sim_io_s=0.0,
            stats=dict(cached.stats),
            route=cached.route,
        )
        out.stats["result_cache_hit"] = 1.0
        return out

    # -- fault handling ----------------------------------------------------

    def _check_degraded(self, cube: str) -> None:
        with self._admission_lock:
            degraded = cube in self._degraded
        if degraded:
            self.counters.add("serve.degraded_rejections")
            raise DegradedError(
                f"cube {cube!r} is degraded (serving cache hits only); "
                "call recover_cube() and retry"
            )

    def _mark_degraded(self, cube: str) -> None:
        with self._admission_lock:
            if cube not in self._degraded:
                self._degraded.add(cube)
                self.counters.add("serve.degradations")

    def is_degraded(self, cube: str) -> bool:
        """Whether ``cube`` is currently serving cache hits only."""
        with self._admission_lock:
            return cube in self._degraded

    def degraded_cubes(self) -> list[str]:
        """Names of cubes currently in degraded mode, sorted."""
        with self._admission_lock:
            return sorted(self._degraded)

    def _with_retries(self, cube: str, action):
        """Run ``action`` retrying :class:`TransientError` failures.

        Backoff doubles from :data:`RETRY_BASE_S` per attempt.
        A :class:`PermanentError` (or an exhausted retry budget) flips
        the cube into degraded mode, after which only cache hits are
        served until :meth:`recover_cube` runs.  ``action`` must take
        the engine lock itself: the backoff sleep here runs with no
        locks held, so one cube's retry storm never blocks the others.
        """
        tracer = get_tracer()
        delay = RETRY_BASE_S
        last: TransientError | None = None
        for attempt in range(RETRY_ATTEMPTS + 1):
            try:
                return action()
            except DegradedError:
                raise  # already degraded: not a fault to retry or re-mark
            except PermanentError:
                self._mark_degraded(cube)
                raise
            except TransientError as exc:
                last = exc
                self.counters.add("serve.transient_faults")
                if attempt >= RETRY_ATTEMPTS:
                    break
                self.counters.add("serve.retries")
                with tracer.span(
                    "serve_retry", cube=cube, attempt=attempt + 1
                ):
                    time.sleep(delay)
                delay *= 2
        self.counters.add("serve.retries_exhausted")
        self._mark_degraded(cube)
        raise RetryExhaustedError(
            f"cube {cube!r}: {RETRY_ATTEMPTS} retries failed "
            f"({last}); cube degraded"
        ) from last

    def recover_cube(self, cube: str) -> int:
        """Recover a cube and lift degraded mode; returns pages replayed.

        With a WAL the pool is crashed (dropping every possibly-suspect
        frame) and committed after-images are replayed onto the disk —
        the same path a process restart takes, run in place.  Without a
        WAL there is nothing to replay; the pool and the decoded-chunk
        cache are still dropped so the next read re-reads authoritative
        disk state.  Cached query *results* are kept: they were computed
        from committed state, which recovery preserves by definition.
        """
        db = self.engine.db
        self.engine.cube(cube)  # validates the name
        tracer = get_tracer()
        start = time.perf_counter()
        with self._engine_lock:
            with tracer.span("recover_cube", cube=cube):
                replayed = 0
                if db.wal is not None:
                    db.pool.crash()
                    replayed = wal_recover(db.disk, db.wal)
                else:
                    db.pool.clear()
                db.chunks.clear()
                with self._admission_lock:
                    self._degraded.discard(cube)
                self.counters.add("serve.recoveries")
                if replayed:
                    self.counters.add("serve.pages_replayed", replayed)
        self._histograms["serve.recovery_seconds"].observe(
            time.perf_counter() - start
        )
        return replayed

    # -- write path --------------------------------------------------------

    # Each write bumps the cube's generation, which is what stales the
    # cube's cached results: the next lookup of one drops it.

    def write_cell(self, cube: str, keys, measures) -> None:
        """Serialized :meth:`OlapEngine.write_cell`."""
        self._check_degraded(cube)
        with self._engine_lock:
            self.engine.write_cell(cube, keys, measures)
        self.counters.add("serve.writes")

    def append_facts(self, cube: str, rows) -> None:
        """Serialized :meth:`OlapEngine.append_facts`."""
        self._check_degraded(cube)
        with self._engine_lock:
            self.engine.append_facts(cube, rows)
        self.counters.add("serve.writes")

    def rebuild_array(self, cube: str, **kwargs):
        """Serialized :meth:`OlapEngine.rebuild_array`."""
        self._check_degraded(cube)
        with self._engine_lock:
            rebuilt = self.engine.rebuild_array(cube, **kwargs)
        self.counters.add("serve.writes")
        return rebuilt

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Stop admitting, wait for the admitted misses, detach the
        memory accountant and metrics."""
        with self._admission_lock:
            if self._closed:
                return
            self._closed = True
            self._drained.wait_for(lambda: not self._in_flight)
        self.memory.close()
        registry = self.engine.db.metrics
        for name in self._sources:
            registry.unregister(name)
        for name in self._gauges:
            registry.unregister_gauge(name)

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
