"""One execution surface: :class:`ExecutionOptions`.

Historically the knobs controlling *how* a query runs were scattered
across ragged keyword lists — ``backend=`` on everything, ``mode=`` with
divergent defaults (one engine entry point said ``"vectorized"``
while the serving layer and CLI said ``"interpreted"``), and
``executor=`` only on a partitioned-consolidation helper of its own.
This module folds them into a single frozen dataclass accepted by
:meth:`OlapEngine.run <repro.olap.engine.OlapEngine.run>`,
:meth:`ConsolidationQuery.builder
<repro.olap.query.ConsolidationQuery.builder>`,
:meth:`QueryService.query <repro.serve.service.QueryService.query>` and
the CLI.

The canonical mode default is ``"auto"``: vectorized when every
aggregate is numpy-decodable (the ``sum``/``count``/``min``/``max``/
``avg`` family), interpreted otherwise — resolved identically by the
engine, the fingerprint and EXPLAIN, so cached results never alias
across modes.

The loose keywords (``backend=`` / ``mode=`` / ``executor=`` /
``shards=`` passed directly to ``run``/``query``) had a one-release
deprecation window and are now gone: :func:`coerce_options` raises
:class:`TypeError` pointing at :class:`ExecutionOptions`.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Union

from repro.errors import QueryError
from repro.obs.tracing import TraceContext

#: aggregates the vectorized kernels support (``_VECTOR_UFUNCS``'s keys)
VECTORIZABLE_AGGREGATES = frozenset({"sum", "count", "min", "max", "avg"})

#: executors the shard coordinator knows how to drive
EXECUTOR_NAMES = ("local", "thread", "process")

_MODES = ("auto", "interpreted", "vectorized")


@dataclass(frozen=True)
class ExecutionOptions:
    """Every knob that selects *how* (not *what*) a query executes.

    - ``backend``: ``"auto"`` (planner picks) or a registered backend
      name (``array``, ``starjoin``, ``bitmap``, ...).
    - ``mode``: ``"auto"`` / ``"interpreted"`` / ``"vectorized"``
      chunk-execution mode (array backend only; see
      :func:`resolve_mode`).
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
    mode: str = "auto"
    executor: str = "local"
    shards: int = 1
    order: str = "chunk"
    allow_partial: bool = False
    trace: TraceContext | None = None

    def __post_init__(self) -> None:
        if self.mode not in _MODES:
            raise QueryError(
                f"unknown mode {self.mode!r}; expected one of {_MODES}"
            )
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


def resolve_mode(
    mode: str, aggregate: Union[str, list[str], tuple[str, ...]], backend: str
) -> str:
    """Resolve ``"auto"`` to the one canonical concrete mode.

    ``"vectorized"`` when the backend is (or may plan to) the array and
    every aggregate has a numpy kernel; ``"interpreted"`` otherwise.
    The relational backends are per-tuple by construction, so any
    non-array backend resolves to ``"interpreted"`` (and an explicit
    ``"vectorized"`` there is quietly meaningless, exactly as before).
    This function is the single resolution point shared by the engine,
    ``query_fingerprint`` and EXPLAIN — giving all three the same
    answer is what keeps cached results from aliasing across modes.
    """
    if mode != "auto":
        return mode
    if backend not in ("array", "auto"):
        return "interpreted"
    names = [aggregate] if isinstance(aggregate, str) else list(aggregate)
    if all(name in VECTORIZABLE_AGGREGATES for name in names):
        return "vectorized"
    return "interpreted"


def coerce_options(
    options: ExecutionOptions | None,
    legacy: dict[str, object],
    where: str,
) -> ExecutionOptions:
    """Resolve the ``options`` argument of a new-surface call.

    ``legacy`` is the ``**kwargs`` dict of the call.  The loose
    per-keyword form (``backend=``, ``mode=``, ``executor=``,
    ``shards=``, ...) had its one-release deprecation window and is now
    a :class:`TypeError` whose message points at the replacement;
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
