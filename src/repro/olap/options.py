"""One execution surface: :class:`ExecutionOptions`.

The knob that selects *how* a query runs — the backend — is one
frozen dataclass.
:meth:`OlapEngine.explain <repro.olap.engine.OlapEngine.explain>`, the
:class:`~repro.serve.service.QueryService` entry points and the CLI
take it whole; :meth:`OlapEngine.query
<repro.olap.engine.OlapEngine.query>` takes the same knob as a keyword.
The request's trace context is not a knob: it is whatever
:func:`~repro.obs.tracing.trace_context` has installed.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ExecutionOptions:
    """Every knob that selects *how* (not *what*) a query executes.

    - ``backend``: ``"auto"`` (planner picks) or one of the engine's
      backends, ``array``, ``starjoin`` or ``bitmap``; any other name
      is a :class:`~repro.errors.PlanError` when the query resolves it.

    A selection always probes chunk by chunk; §4.2's naive order is the
    ablation baseline ``naive`` in :mod:`repro.bench.baselines`.
    """

    backend: str = "auto"
