"""One execution surface: :class:`ExecutionOptions`.

The knobs that select *how* a query runs — the backend, and where
shard scans run and how many there are — are one frozen dataclass,
and its ``__post_init__`` is the one place they are checked.
:meth:`OlapEngine.explain <repro.olap.engine.OlapEngine.explain>`, the
:class:`~repro.serve.service.QueryService` entry points and the CLI
take it whole; :meth:`OlapEngine.query
<repro.olap.engine.OlapEngine.query>` takes the same knobs as keywords
and builds the :class:`ExecutionOptions` it executes from them, so
every entry point rejects the same values.  The request's trace
context is not a knob: it is whatever
:func:`~repro.obs.tracing.trace_context` has installed.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import QueryError

#: executors the shard coordinator knows how to drive
EXECUTOR_NAMES = ("local", "thread", "process")


@dataclass(frozen=True)
class ExecutionOptions:
    """Every knob that selects *how* (not *what*) a query executes.

    - ``backend``: ``"auto"`` (planner picks) or one of the engine's
      backends, ``array``, ``starjoin`` or ``bitmap``; any other name
      is a :class:`~repro.errors.PlanError` when the query resolves it.
    - ``executor``: ``"local"`` / ``"thread"`` / ``"process"`` — where
      shard scans run when ``shards > 1``.
    - ``shards``: number of chunk-range shards to scatter the
      consolidation over (1 = the classic single-scan path).

    A selection always probes chunk by chunk; §4.2's naive order is the
    ablation baseline ``naive`` in :mod:`repro.bench.baselines`.
    """

    backend: str = "auto"
    executor: str = "local"
    shards: int = 1

    def __post_init__(self) -> None:
        if self.executor not in EXECUTOR_NAMES:
            raise QueryError(
                f"unknown executor {self.executor!r}; expected one of "
                f"{EXECUTOR_NAMES}"
            )
        if self.shards < 1:
            raise QueryError(f"shards must be >= 1, got {self.shards}")
