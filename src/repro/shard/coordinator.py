"""The shard coordinator: scatter, re-scatter, merge.

One coordinator per :class:`~repro.olap.engine.OlapEngine`, reached
only through :meth:`OlapEngine.query
<repro.olap.engine.OlapEngine.query>`'s ``shards``/``executor``
keywords.  A sharded consolidation runs in five phases, each a tracer
span:

1. ``resolve_mappings`` — build the merged result accumulator;
2. ``btree_dimension_lookup`` — the §4.2 final index lists (when the
   query has selections);
3. ``shard_scatter`` — dispatch one task per chunk-range assignment
   (:func:`~repro.shard.plan.plan_shards`) to the selected executor.
   A task lost to a :class:`~repro.errors.TransientError`, a straggler
   timeout, or a broken process pool is re-scattered (up to
   :attr:`~ShardCoordinator.MAX_RETRY_ROUNDS` extra rounds); a shard
   still lost after that raises
   :class:`~repro.errors.ShardScatterError`.  Each shard's counters
   fold into the query's bag once, whatever the executor;
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
``shard.retries``, ``shard.timeouts``, per-shard
``shard.<i>.pool_hits``/``pool_misses``), exported on ``/metrics``
like every other source.
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
from repro.obs.tracer import get_tracer
from repro.shard.executor import ShardExecutor, make_executor
from repro.shard.plan import plan_shards
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
        self.counters = Counters()
        self._source = engine.db.metrics.register("engine:shard", self.counters)
        self._workspace: str | None = None
        self._images: dict[str, tuple[int, str]] = {}
        self._executors: dict[str, ShardExecutor] = {}

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

        # the chunk directory loads here, on this thread and billed to
        # the query, before any task runs; with the merged accumulator's
        # mappings that is everything lazily loaded, so thread workers
        # only read it
        array._entries(counters)
        plan = plan_shards(array, ctx.shards, ctx.executor)
        # thread scans read through the chunk cache even cold (the cold
        # flush has just emptied it): its I/O lock serializes the pool's
        # single-threaded bookkeeping.  Without one, scan on this thread.
        name = ctx.executor
        if name == "thread" and array.chunk_cache is None:
            name = "local"
        tasks, fn = self._build_tasks(
            plan, array, specs, aggregate, allowed, cube, state,
            cold=ctx.cold and name == "local",
        )
        timeout_s = None if name == "local" else self.timeout_s

        scatter_started = time.perf_counter()
        with tracer.span(
            "shard_scatter", shards=plan.shards, executor=plan.executor
        ):
            partials = self._scatter_with_retry(
                self.executor(name), fn, tasks, timeout_s
            )
            for shard_no in sorted(partials):
                self._fold_shard_counters(
                    counters, shard_no, partials[shard_no]["counters"]
                )
        bag.add("shard.scatter_ms", (time.perf_counter() - scatter_started) * 1e3)

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
        bag.add("shard.merge_ms", (time.perf_counter() - merge_started) * 1e3)

        counters.add("shards", plan.shards)
        with tracer.span("extract_rows"):
            rows = merged.rows()
        return ConsolidationResult(rows=rows, counters=counters)

    # -- task construction ----------------------------------------------------

    def _build_tasks(self, plan, array, specs, aggregate, allowed, cube, state, cold):
        """Tasks + task function for the executor; ``cold`` inline scans
        read around the chunk cache."""
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
                )
                for a in plan.assignments
            ]
            return tasks, run_shard_task

        tasks = [
            {
                "shard": a.shard_no,
                "array": array,
                "specs": specs,
                "aggregate": aggregate,
                "allowed": allowed,
                "start": a.start,
                "stop": a.stop,
                "cold": cold,
                "fail_marker": self._marker_path(a.shard_no),
            }
            for a in plan.assignments
        ]
        return tasks, run_inline_task

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

    # -- counter folding ------------------------------------------------------

    def _fold_shard_counters(
        self, counters: Counters, shard_no: int, deltas: dict
    ) -> None:
        """Fold one shard task's counter deltas into the query's bag.

        A process worker's pool and disk are its own: its hit counts go
        to the shard bag, its simulated I/O into the parent disk's so
        cost accounting (``result.sim_io_s``) matches the thread path.
        The rest is the task's private bag; ``counters`` receives it
        here, once, whatever the executor (a measured zero is a report
        too, so fold on presence).
        """
        deltas = dict(deltas)
        for key in ("pool_hits", "pool_misses"):
            if key in deltas:
                self.counters.add(f"shard.{shard_no}.{key}", deltas.pop(key))
        if "sim_io_s" in deltas:
            self.engine.db.disk.counters.add("sim_io_s", deltas.pop("sim_io_s"))
        for key, value in deltas.items():
            counters.add(key, value)

    # -- lifecycle ------------------------------------------------------------

    def close(self) -> None:
        """Shut down executor pools and remove the scratch workspace."""
        for executor in self._executors.values():
            executor.close()
        self._executors.clear()
        self._images.clear()
        if self._workspace is not None:
            shutil.rmtree(self._workspace, ignore_errors=True)
            self._workspace = None
        self.engine.db.metrics.unregister(self._source)
