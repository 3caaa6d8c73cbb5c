"""The shard coordinator: snapshot, scatter, re-scatter, merge.

One coordinator per :class:`~repro.olap.engine.OlapEngine`.  A sharded
consolidation runs in five phases, each a tracer span so EXPLAIN
ANALYZE binds estimates to measured actuals:

1. ``resolve_mappings`` — build the merged result accumulator;
2. ``btree_dimension_lookup`` — the §4.2 final index lists (when the
   query has selections; the lists also refine the shard plan);
3. ``shard_scatter`` — dispatch one task per chunk-range assignment to
   the selected executor.  A task lost to a
   :class:`~repro.errors.TransientError`, a straggler timeout, or a
   broken process pool is re-scattered (up to
   :attr:`~ShardCoordinator.MAX_RETRY_ROUNDS` extra rounds); a shard
   still lost after that raises
   :class:`~repro.errors.ShardScatterError`.  Completed shards get
   post-hoc ``shard_scan_<i>``
   child spans carrying their measured per-shard counters (worker
   threads and processes trace into their own roots, so the coordinator
   re-binds the actuals on its own thread).
4. ``shard_merge`` — fold the partial accumulators (or, for process
   workers, their exported states) into the merged result;
5. ``extract_rows`` — sorted output rows.

Process workers scan a *volume image*: the coordinator flushes the
buffer pool and saves the simulated disk once per cube generation, and
workers open their own database (own pool, own WAL segment directory)
from that image.  Worker-simulated I/O is folded back into the parent
disk's ``sim_io_s`` so cost accounting stays comparable with the
thread path.

Metrics flow into the registry's ``engine:shard`` bag
(``shard.queries``, ``shard.scatter_ms``, ``shard.merge_ms``,
``shard.retries``, ``shard.timeouts``, per-shard ``shard.<i>.pool_hits``/``pool_misses``) and into the
``engine.shard.scatter_seconds`` / ``merge_seconds`` /
``scan_seconds`` histograms, exported on ``/metrics`` like every
other source.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import time
from concurrent.futures import TimeoutError as FuturesTimeoutError
from concurrent.futures.process import BrokenProcessPool

from repro.core.consolidate import ConsolidationResult, ResultAccumulator
from repro.core.select_consolidate import _final_index_lists
from repro.errors import QueryError, ShardScatterError, TransientError
from repro.obs.exporters import span_from_dict
from repro.obs.tracer import get_tracer
from repro.obs.tracing import current_trace_context, new_trace_context
from repro.shard.executor import ShardExecutor, make_executor
from repro.shard.plan import ShardPlan, plan_shards
from repro.shard.worker import run_inline_task, run_shard_task
from repro.util.stats import Counters


class ShardCoordinator:
    """Plans, scatters and merges sharded consolidations for one engine."""

    #: extra scatter rounds for lost shards before giving up
    MAX_RETRY_ROUNDS = 2
    #: straggler timeout per scatter round (thread/process executors)
    DEFAULT_TIMEOUT_S = 60.0

    def __init__(self, engine):
        self.engine = engine
        self.timeout_s: float | None = self.DEFAULT_TIMEOUT_S
        self.counters = engine.db.metrics.register(
            "engine:shard", Counters(), replace=True
        )
        self._workspace: str | None = None
        self._images: dict[str, tuple[int, str]] = {}
        self._executors: dict[str, ShardExecutor] = {}
        #: last reported buffer-pool bytes per process-worker shard —
        #: the memory accountant's view of memory held *outside* this
        #: process (folded back like the counter deltas are)
        self._worker_pool_bytes: dict[int, float] = {}

    # -- workspace / executors ------------------------------------------------

    def workspace(self) -> str:
        """Lazy scratch directory: volume images, WAL segments, markers."""
        if self._workspace is None:
            self._workspace = tempfile.mkdtemp(prefix="repro-shard-")
        return self._workspace

    def executor(self, name: str) -> ShardExecutor:
        """The cached executor for ``name`` (pools persist across queries)."""
        if name not in self._executors:
            self._executors[name] = make_executor(name)
        return self._executors[name]

    def _marker_path(self, shard_no: int) -> str:
        return os.path.join(self.workspace(), f"fail-shard-{shard_no}")

    def inject_fail_once(self, shard_no: int) -> str:
        """Test hook: make shard ``shard_no``'s next attempt fail once.

        Creates the filesystem marker :func:`repro.shard.worker` checks —
        visible across process boundaries, consumed by the first attempt
        that sees it, so the coordinator's re-scatter succeeds.
        """
        marker = self._marker_path(shard_no)
        with open(marker, "w"):
            pass
        return marker

    def _image_for(self, cube: str, state) -> str:
        """The volume image process workers open; one per cube generation."""
        generation = state.generation
        cached = self._images.get(cube)
        if cached is not None and cached[0] == generation:
            return cached[1]
        # committed state is durable in pages/WAL; flushing makes every
        # page visible to disk.save so the image is self-contained
        self.engine.db.pool.flush_all()
        path = os.path.join(self.workspace(), f"{cube}-gen{generation}.img")
        self.engine.db.disk.save(path)
        if cached is not None and cached[1] != path:
            try:
                os.remove(cached[1])
            except OSError:
                pass
        self._images[cube] = (generation, path)
        return path

    # -- planning -------------------------------------------------------------

    def plan(
        self,
        array,
        shards: int,
        executor: str = "local",
        cube: str = "",
        generation: int = 0,
        allowed: list[list[int]] | None = None,
        counters: Counters | None = None,
    ) -> ShardPlan:
        return plan_shards(
            array,
            shards,
            executor=executor,
            cube=cube,
            generation=generation,
            allowed=allowed,
            counters=counters,
        )

    # -- the scatter-gather consolidation ------------------------------------

    def consolidate(
        self,
        ctx,
        array,
        specs,
        selections,
        aggregate,
        cube: str,
        state,
    ) -> ConsolidationResult:
        """Run one sharded consolidation under the backend context."""
        tracer = get_tracer()
        counters = ctx.counters
        bag = self.counters
        bag.add("shard.queries")

        with tracer.span("resolve_mappings"):
            merged = ResultAccumulator(array, specs, aggregate, counters)
        allowed = None
        if selections:
            with tracer.span("btree_dimension_lookup"):
                allowed = _final_index_lists(array, list(selections), counters)

        plan = self.plan(
            array,
            ctx.shards,
            executor=ctx.executor,
            cube=cube,
            generation=state.generation,
            allowed=allowed,
            counters=counters,
        )
        executor = self.executor(ctx.executor)
        # the distributed trace context crossing into the workers is the
        # thread-local one; a live tracer without one (EXPLAIN ANALYZE
        # from the CLI) mints a scatter-local root so workers still
        # ship trees
        trace = current_trace_context()
        if trace is None and tracer.enabled:
            trace = new_trace_context(origin="shard-scatter")
        task_trace = trace if tracer.enabled else None
        tasks, fn, cleanup = self._build_tasks(
            plan, array, specs, aggregate, allowed, cube, state,
            trace=task_trace,
        )
        timeout_s = None if ctx.executor == "local" else self.timeout_s

        scatter_started = time.perf_counter()
        with tracer.span(
            "shard_scatter",
            shards=plan.shards,
            executor=plan.executor,
            ranges=plan.ranges_token(),
            **({"trace_id": trace.trace_id} if trace is not None else {}),
        ):
            try:
                partials = self._scatter_with_retry(
                    executor, fn, tasks, timeout_s
                )
            finally:
                cleanup()
            self._bind_shard_actuals(ctx, plan, partials)
        scatter_s = time.perf_counter() - scatter_started
        bag.add("shard.scatter_ms", scatter_s * 1e3)
        self.engine.db.metrics.observe(
            "engine.shard.scatter_seconds",
            scatter_s,
            trace_id=trace.trace_id if trace is not None else None,
        )

        merge_started = time.perf_counter()
        with tracer.span("shard_merge", shards=len(partials)):
            for shard_no in sorted(partials):
                result = partials[shard_no]
                if "accumulator" in result:
                    merged.merge_from(result["accumulator"])
                else:
                    partial = ResultAccumulator(array, specs, aggregate)
                    partial.import_state(result["state"])
                    merged.merge_from(partial)
            counters.add("result_cells", merged.touched_cells())
        merge_s = time.perf_counter() - merge_started
        bag.add("shard.merge_ms", merge_s * 1e3)
        self.engine.db.metrics.observe("engine.shard.merge_seconds", merge_s)

        counters.add("shards", plan.shards)
        with tracer.span("extract_rows"):
            rows = merged.rows()
        return ConsolidationResult(rows=rows, counters=counters)

    # -- task construction ----------------------------------------------------

    def _build_tasks(
        self, plan, array, specs, aggregate, allowed, cube, state,
        trace=None,
    ):
        """Tasks + task function + post-scatter cleanup for the executor.

        ``trace`` is the scatter's :class:`TraceContext`; each task gets
        its own child context (fresh span identity, same trace) in the
        picklable ``to_dict`` form, which makes the worker run its scan
        under a local tracer and ship the span tree back.
        """

        def task_trace() -> dict | None:
            return trace.child().to_dict() if trace is not None else None

        if plan.executor == "process":
            for spec in specs:
                if spec.kind == "mapping":
                    raise QueryError(
                        "mapping specs cannot shard across processes"
                    )
            image_path = self._image_for(cube, state)
            wal_base = os.path.join(self.workspace(), "wal")
            os.makedirs(wal_base, exist_ok=True)
            pool = self.engine.db.pool
            common = {
                "image_path": image_path,
                "wal_base": wal_base,
                "pool_bytes": pool.capacity_frames * self.engine.db.disk.page_size,
                "disk_model": self.engine.db.disk.model,
                "array_name": array.name,
                "specs": [(s.kind, s.attr) for s in specs],
                "aggregate": aggregate,
                "allowed": allowed,
            }
            tasks = [
                dict(
                    common,
                    shard=a.shard_no,
                    start=a.start,
                    stop=a.stop,
                    fail_marker=self._marker_path(a.shard_no),
                    trace=task_trace(),
                )
                for a in plan.assignments
            ]
            return tasks, run_shard_task, lambda: None

        tasks = [
            {
                "shard": a.shard_no,
                "array": array,
                "specs": specs,
                "aggregate": aggregate,
                "allowed": allowed,
                "start": a.start,
                "stop": a.stop,
                "fail_marker": self._marker_path(a.shard_no),
                "trace": task_trace(),
            }
            for a in plan.assignments
        ]
        cleanup = lambda: None  # noqa: E731
        if plan.executor == "thread" and array.chunk_cache is None:
            # everything lazily loaded (chunk directory, mappings) was
            # resolved on this thread by the plan and the merged
            # accumulator; what is left is the buffer pool, whose
            # pin/evict bookkeeping is single-threaded — a temporary
            # chunk cache's I/O lock serializes it under the scans
            from repro.serve.chunk_cache import ChunkCache

            temporary = ChunkCache(max_chunks=max(8, plan.shards))
            array.chunk_cache = temporary

            def cleanup() -> None:
                array.chunk_cache = None
                temporary.clear()

        return tasks, run_inline_task, cleanup

    # -- scatter / retry ------------------------------------------------------

    def _scatter_with_retry(
        self,
        executor: ShardExecutor,
        fn,
        tasks: list[dict],
        timeout_s: float | None,
    ):
        """Scatter; re-scatter lost tasks; return every shard's partial.

        Raises :class:`ShardScatterError` when a task is still lost
        after :attr:`MAX_RETRY_ROUNDS` re-scatter rounds.
        """
        bag = self.counters
        pending = list(tasks)
        partials: dict[int, dict] = {}
        rounds = 0
        while pending:
            raw = executor.map_tasks(fn, pending, timeout_s=timeout_s)
            failed = []
            for task, outcome in zip(pending, raw):
                if isinstance(outcome, BaseException):
                    retryable = isinstance(
                        outcome,
                        (TransientError, FuturesTimeoutError, BrokenProcessPool),
                    )
                    if not retryable:
                        raise outcome
                    if isinstance(outcome, FuturesTimeoutError):
                        bag.add("shard.timeouts")
                    failed.append(task)
                else:
                    partials[outcome["shard"]] = outcome
            if not failed:
                break
            rounds += 1
            if rounds > self.MAX_RETRY_ROUNDS:
                lost = ",".join(f"{t['start']}:{t['stop']}" for t in failed)
                raise ShardScatterError(
                    f"lost chunk ranges [{lost}] after "
                    f"{self.MAX_RETRY_ROUNDS} re-scatter rounds"
                )
            bag.add("shard.retries", len(failed))
            pending = failed
        return partials

    # -- actuals binding ------------------------------------------------------

    def _bind_shard_actuals(self, ctx, plan: ShardPlan, partials: dict) -> None:
        """Re-bind worker-measured counters as coordinator-thread spans.

        Worker threads/processes trace into their own roots (or not at
        all), so EXPLAIN ANALYZE would see empty scan nodes.  Opening
        ``shard_scan_<i>`` spans here — while ``ctx.counters`` is the
        registry-scoped query bag — makes each shard's measured chunk
        and cell counts the span's I/O delta, exactly what
        ``attach_actuals`` binds to the plan's ``shard.scan[i]`` nodes.
        """
        tracer = get_tracer()
        counters = ctx.counters
        bag = self.counters
        for assignment in plan.assignments:
            result = partials[assignment.shard_no]
            deltas = dict(result["counters"])
            with tracer.span(
                f"shard_scan_{assignment.shard_no}",
                shard=assignment.shard_no,
                chunks=assignment.n_chunks,
                executor=plan.executor,
            ) as span:
                span.annotate(scan_s=round(result["scan_s"], 6))
                # a process worker's pool and disk are its own: its hit
                # rates go to the shard bag, its simulated I/O into the
                # parent disk's so cost accounting (result.sim_io_s)
                # matches the thread path
                for key in ("pool_hits", "pool_misses"):
                    if key in deltas:
                        bag.add(
                            f"shard.{assignment.shard_no}.{key}",
                            deltas.pop(key),
                        )
                if "sim_io_s" in deltas:
                    self.engine.db.disk.counters.add(
                        "sim_io_s", deltas.pop("sim_io_s")
                    )
                # the rest is the task's private bag; the query's bag
                # receives it here, once, whatever the executor (a
                # measured zero is a report too, so fold on presence)
                for key, value in deltas.items():
                    counters.add(key, value)
                worker_roots = result.get("trace")
                if worker_roots and tracer.enabled:
                    # re-parent the worker's serialized span tree under
                    # this shard's span: one contiguous tree per query,
                    # even when the scan ran in another process
                    span.children.extend(
                        span_from_dict(payload) for payload in worker_roots
                    )
            self.engine.db.metrics.observe(
                "engine.shard.scan_seconds", result["scan_s"]
            )
            if "pool_resident_bytes" in result:
                self._worker_pool_bytes[assignment.shard_no] = float(
                    result["pool_resident_bytes"]
                )

    def worker_pool_resident_bytes(self) -> float:
        """Last-known buffer-pool bytes summed across process workers.

        Inline executors share the parent's pool (already accounted),
        so only process-worker reports land here.
        """
        return float(sum(self._worker_pool_bytes.values()))

    # -- lifecycle ------------------------------------------------------------

    def close(self) -> None:
        """Shut down executor pools and remove the scratch workspace."""
        for executor in self._executors.values():
            executor.close()
        self._executors.clear()
        self._images.clear()
        self._worker_pool_bytes.clear()
        if self._workspace is not None:
            shutil.rmtree(self._workspace, ignore_errors=True)
            self._workspace = None
        try:
            self.engine.db.metrics.unregister("engine:shard")
        except Exception:
            pass
