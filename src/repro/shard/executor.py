"""The shard Executor protocol: ``local`` / ``thread`` / ``process``.

Where a shard's sub-range scan runs, selected per query by the
coordinator:

- :class:`LocalShardExecutor` runs tasks inline on the calling thread —
  the deterministic tests/debug executor;
- :class:`ThreadShardExecutor` fans tasks out to a thread pool (shared
  address space, shared buffer pool);
- :class:`ProcessShardExecutor` dispatches picklable tasks to a
  persistent spawn-context process pool — each worker opens its own
  volume image, buffer pool and WAL segment directory
  (:mod:`repro.shard.worker`).

``map_tasks`` never raises for a task failure: each slot of the result
list is either the task's return value or the exception it raised (a
``concurrent.futures`` timeout surfaces as that exception too), so the
coordinator can re-scatter exactly the lost chunk ranges.
"""

from __future__ import annotations

import sys
from abc import ABC, abstractmethod
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from typing import Callable

from repro.errors import QueryError


class ShardExecutor(ABC):
    """Runs a batch of shard tasks; collects per-task results/errors."""

    name: str = ""

    @abstractmethod
    def map_tasks(
        self,
        fn: Callable[[dict], dict],
        tasks: list[dict],
        timeout_s: float | None = None,
    ) -> list[object]:
        """Run ``fn`` over ``tasks``; per-slot result or raised exception."""

    def reset(self) -> None:
        """Drop any pooled workers (after a broken pool); lazily rebuilt."""

    def close(self) -> None:
        """Release pooled workers; the executor may be reused afterwards."""


class LocalShardExecutor(ShardExecutor):
    """In-process, sequential — tests, debugging, and ``shards=1``."""

    name = "local"

    def map_tasks(self, fn, tasks, timeout_s=None):
        out: list[object] = []
        for task in tasks:
            try:
                out.append(fn(task))
            except Exception as exc:  # collected, never raised here
                out.append(exc)
        return out


class ThreadShardExecutor(ShardExecutor):
    """One worker thread per task (capped), shared address space."""

    name = "thread"

    def __init__(self, max_workers: int | None = None):
        self._max_workers = max_workers

    def map_tasks(self, fn, tasks, timeout_s=None):
        workers = self._max_workers if self._max_workers else len(tasks)
        out: list[object] = []
        with ThreadPoolExecutor(
            max_workers=max(1, workers), thread_name_prefix="repro-shard"
        ) as pool:
            futures = [pool.submit(fn, task) for task in tasks]
            for future in futures:
                try:
                    out.append(future.result(timeout=timeout_s))
                except Exception as exc:
                    out.append(exc)
        return out


def _worker_init(paths: list[str]) -> None:
    """Spawn-context bootstrap: mirror the parent's import path.

    A spawned child re-imports ``repro`` from scratch; when the parent
    runs from a source tree (``PYTHONPATH=src``) without an installed
    package, the child needs the same ``sys.path`` to unpickle the task
    function.
    """
    for path in reversed(paths):
        if path not in sys.path:
            sys.path.insert(0, path)


class ProcessShardExecutor(ShardExecutor):
    """A persistent spawn-context process pool.

    The pool is created lazily on first use and *reused across queries*
    (worker start-up plus volume-image open dominate a single shard
    scan, so a pool-per-query design would bury the parallelism).  Task
    functions must be module-level and tasks picklable — see
    :func:`repro.shard.worker.run_shard_task`.
    """

    name = "process"

    def __init__(self, max_workers: int | None = None):
        self._max_workers = max_workers
        self._pool: ProcessPoolExecutor | None = None

    def _ensure_pool(self, n_tasks: int) -> ProcessPoolExecutor:
        if self._pool is None:
            import multiprocessing

            workers = self._max_workers if self._max_workers else n_tasks
            self._pool = ProcessPoolExecutor(
                max_workers=max(1, workers),
                mp_context=multiprocessing.get_context("spawn"),
                initializer=_worker_init,
                initargs=(list(sys.path),),
            )
        return self._pool

    def map_tasks(self, fn, tasks, timeout_s=None):
        pool = self._ensure_pool(len(tasks))
        futures = [pool.submit(fn, task) for task in tasks]
        out: list[object] = []
        broken = False
        for future in futures:
            try:
                out.append(future.result(timeout=timeout_s))
            except Exception as exc:
                from concurrent.futures.process import BrokenProcessPool

                out.append(exc)
                broken = broken or isinstance(exc, BrokenProcessPool)
        if broken:
            # a worker died hard; drop the pool so the next round (a
            # coordinator re-scatter) starts fresh workers
            self.reset()
        return out

    def reset(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None


_EXECUTORS: dict[str, type[ShardExecutor]] = {
    "local": LocalShardExecutor,
    "thread": ThreadShardExecutor,
    "process": ProcessShardExecutor,
}


def make_executor(name: str, max_workers: int | None = None) -> ShardExecutor:
    """Instantiate an executor by protocol name."""
    try:
        cls = _EXECUTORS[name]
    except KeyError:
        raise QueryError(
            f"unknown executor {name!r}; expected one of "
            f"{tuple(sorted(_EXECUTORS))}"
        ) from None
    if cls is LocalShardExecutor:
        return cls()
    return cls(max_workers=max_workers)  # type: ignore[call-arg]
