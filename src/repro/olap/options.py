"""One execution surface: :class:`ExecutionOptions`.

The knobs that select *how* a query runs — the backend, where shard
scans run and how many there are, the selection's probe order, partial
results and the request's trace context — are one frozen dataclass,
and its ``__post_init__`` is the one place they are checked.
:meth:`OlapEngine.run <repro.olap.engine.OlapEngine.run>`,
:meth:`ConsolidationQuery.builder
<repro.olap.query.ConsolidationQuery.builder>`,
:meth:`QueryService.query <repro.serve.service.QueryService.query>` and
the CLI take it whole.  :meth:`OlapEngine.query
<repro.olap.engine.OlapEngine.query>` takes the same knobs as keywords
and builds the :class:`ExecutionOptions` it executes from them, so both
entry points reject the same values.  Everywhere else the loose
keywords had a one-release deprecation window and are gone:
:func:`coerce_options` raises :class:`TypeError` pointing at
:class:`ExecutionOptions`.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

from repro.errors import QueryError
from repro.obs.tracing import TraceContext

#: executors the shard coordinator knows how to drive
EXECUTOR_NAMES = ("local", "thread", "process")


@dataclass(frozen=True)
class ExecutionOptions:
    """Every knob that selects *how* (not *what*) a query executes.

    - ``backend``: ``"auto"`` (planner picks) or a registered backend
      name (``array``, ``starjoin``, ``bitmap``, ...).
    - ``executor``: ``"local"`` / ``"thread"`` / ``"process"`` — where
      shard scans run when ``shards > 1``.
    - ``shards``: number of chunk-range shards to scatter the
      consolidation over (1 = the classic single-scan path).
    - ``order``: chunk-by-chunk (``"chunk"``) or naive (``"naive"``)
      probe order for selections.
    - ``allow_partial``: opt-in degraded mode — when a shard stays lost
      after the re-scatter budget, return the merged partial aggregate
      (flagged in ``result.stats``) instead of raising
      :class:`~repro.errors.ShardScatterError`.
    - ``trace``: the distributed :class:`~repro.obs.tracing.TraceContext`
      of the request this execution belongs to, threaded through the
      engine into shard scatter so worker span trees join the request's
      trace.  Identity, not execution shape: it never participates in
      query fingerprints or result caching.
    """

    backend: str = "auto"
    executor: str = "local"
    shards: int = 1
    order: str = "chunk"
    allow_partial: bool = False
    trace: TraceContext | None = None

    def __post_init__(self) -> None:
        if self.executor not in EXECUTOR_NAMES:
            raise QueryError(
                f"unknown executor {self.executor!r}; expected one of "
                f"{EXECUTOR_NAMES}"
            )
        if self.shards < 1:
            raise QueryError(f"shards must be >= 1, got {self.shards}")
        if self.order not in ("chunk", "naive"):
            raise QueryError(f"unknown order {self.order!r}")

    def merged_with(self, **overrides: object) -> "ExecutionOptions":
        """A copy with the given fields replaced (validation re-runs)."""
        return replace(self, **overrides)  # type: ignore[arg-type]


_OPTION_FIELDS = tuple(f.name for f in fields(ExecutionOptions))


def coerce_options(
    options: ExecutionOptions | None,
    legacy: dict[str, object],
    where: str,
) -> ExecutionOptions:
    """Resolve the ``options`` argument of a new-surface call.

    ``legacy`` is the ``**kwargs`` dict of the call.  The loose
    per-keyword form (``backend=``, ``executor=``, ``shards=``, ...)
    had its one-release deprecation window and is now a
    :class:`TypeError` whose message points at the replacement;
    keywords that were never valid raise the generic form.
    """
    unknown = sorted(set(legacy) - set(_OPTION_FIELDS))
    if unknown:
        raise TypeError(f"{where}: unexpected keyword arguments {unknown}")
    if legacy:
        raise TypeError(
            f"{where}: the loose keywords {sorted(legacy)} were removed; "
            f"pass ExecutionOptions({', '.join(f'{k}=...' for k in sorted(legacy))}) "
            "instead"
        )
    return options if options is not None else ExecutionOptions()
