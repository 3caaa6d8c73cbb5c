"""EXPLAIN / EXPLAIN ANALYZE: structured query plans with cost accounting.

Every backend describes its evaluation strategy as a tree of
:class:`PlanNode` objects before running anything.  Each node carries
the planner's **estimates** of the physical quantities the paper's cost
model is built on — chunks to touch, cells to scan, B-tree probes,
hash-table build sizes, bytes to read.  ``EXPLAIN ANALYZE`` then runs
the query under a registry-bound tracer and attaches **actuals**: each
node names the tracer span whose counter deltas measure it, so the
actuals are exactly the :class:`~repro.obs.registry.MetricsRegistry`
deltas over that phase (chunks_read, cells_scanned, ...), not a second
ad-hoc bookkeeping path.

Per estimated metric the node reports a smoothed misestimate ratio
``(actual + 1) / (estimate + 1)`` — the add-one keeps zero estimates
finite — and the worst per-node factor ``max(ratio, 1/ratio)`` feeds
the ``engine.explain.misestimate_factor`` histogram on ``/metrics``,
so chronic planner errors are visible without reading any single plan.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.obs.tracer import Span

#: a node whose worst estimate-vs-actual factor exceeds this counts as
#: a misestimate (the ``explain.misestimates`` counter)
MISESTIMATE_FACTOR_THRESHOLD = 2.0


@dataclass
class PlanNode:
    """One operator of a query plan.

    ``span`` names the tracer span whose registry counter deltas are
    this node's actuals (``None`` for purely descriptive nodes);
    ``detail`` holds plan-shape attributes (dimension names, chunk
    counts, predicate counts); ``estimates`` maps counter names to predicted
    values; ``actuals`` is filled by :func:`attach_actuals` after an
    ANALYZE run.
    """

    op: str
    span: str | None = None
    detail: dict = field(default_factory=dict)
    estimates: dict = field(default_factory=dict)
    actuals: dict | None = None
    duration_s: float | None = None
    children: list["PlanNode"] = field(default_factory=list)

    def add(self, child: "PlanNode") -> "PlanNode":
        """Append ``child`` and return it (builder convenience)."""
        self.children.append(child)
        return child

    def walk(self) -> Iterator["PlanNode"]:
        """Yield this node then every descendant, depth first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def misestimates(self) -> dict[str, float]:
        """Per estimated metric, ``(actual + 1) / (estimate + 1)``.

        Empty until actuals are attached.  A ratio above 1 means the
        planner under-estimated; below 1, over-estimated.
        """
        if self.actuals is None:
            return {}
        out = {}
        for name, estimate in self.estimates.items():
            actual = float(self.actuals.get(name, 0.0))
            out[name] = (actual + 1.0) / (float(estimate) + 1.0)
        return out

    def worst_misestimate(self) -> float | None:
        """The node's worst factor ``max(ratio, 1/ratio)``, if analyzed."""
        ratios = self.misestimates()
        if not ratios:
            return None
        return max(max(r, 1.0 / r) for r in ratios.values())

    def to_dict(self) -> dict:
        """A JSON-serializable dict of this subtree."""
        payload: dict = {
            "op": self.op,
            "span": self.span,
            "detail": dict(self.detail),
            "estimates": dict(self.estimates),
        }
        if self.actuals is not None:
            payload["actuals"] = dict(self.actuals)
            payload["misestimates"] = self.misestimates()
            worst = self.worst_misestimate()
            if worst is not None:
                payload["worst_misestimate"] = worst
        if self.duration_s is not None:
            payload["duration_s"] = self.duration_s
        payload["children"] = [child.to_dict() for child in self.children]
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "PlanNode":
        """Rebuild a node tree from :meth:`to_dict` output."""
        node = cls(
            op=payload["op"],
            span=payload.get("span"),
            detail=dict(payload.get("detail", {})),
            estimates=dict(payload.get("estimates", {})),
            actuals=(
                dict(payload["actuals"]) if "actuals" in payload else None
            ),
            duration_s=payload.get("duration_s"),
        )
        node.children = [
            cls.from_dict(child) for child in payload.get("children", [])
        ]
        return node


def attach_actuals(root: PlanNode, span_root: Span) -> None:
    """Fill every node's actuals from its named span's counter deltas.

    Span I/O deltas are registry-wide and inclusive of children, so a
    node's actuals are exactly the counter movement attributable to its
    phase — the same numbers ``run_cold``'s cost report decomposes.
    Nodes whose span did not occur in this execution (e.g. a phase
    skipped at runtime) get empty actuals rather than staying
    unanalyzed.
    """
    for node in root.walk():
        if node.span is None:
            continue
        span = span_root.find(node.span)
        if span is None:
            node.actuals = {}
            continue
        node.actuals = dict(span.io)
        node.duration_s = span.duration_s


@dataclass
class QueryPlan:
    """A backend's plan for one query, plus planner context.

    ``analyzed`` plans additionally carry execution totals (the merged
    stats snapshot), row count, elapsed and simulated-I/O seconds.
    """

    cube: str
    backend: str
    fingerprint: str
    planner: dict
    root: PlanNode
    analyzed: bool = False
    rows: int = 0
    elapsed_s: float = 0.0
    sim_io_s: float = 0.0
    totals: dict = field(default_factory=dict)

    def worst_misestimate(self) -> float | None:
        """The plan's worst per-node factor, or ``None`` pre-ANALYZE."""
        factors = [
            f
            for f in (n.worst_misestimate() for n in self.root.walk())
            if f is not None
        ]
        return max(factors) if factors else None

    def bind_actuals(
        self,
        span: Span | None,
        *,
        rows: int,
        elapsed_s: float,
        sim_io_s: float,
        totals: dict,
    ) -> None:
        """Make this an analyzed plan: each node's actuals from ``span``'s
        tree (see :func:`attach_actuals`; ``None`` leaves the nodes
        unanalyzed) and the run's row count, timings and totals."""
        if span is not None:
            attach_actuals(self.root, span)
        self.analyzed = True
        self.rows = rows
        self.elapsed_s = elapsed_s
        self.sim_io_s = sim_io_s
        self.totals = dict(totals)

    def to_dict(self) -> dict:
        """A JSON-serializable dict: what a trace record's ``plans`` and
        the API's ``?explain=1`` body carry."""
        payload: dict = {
            "cube": self.cube,
            "backend": self.backend,
            "fingerprint": self.fingerprint,
            "analyzed": self.analyzed,
            "planner": dict(self.planner),
            "plan": self.root.to_dict(),
        }
        if self.analyzed:
            payload["execution"] = {
                "rows": self.rows,
                "elapsed_s": self.elapsed_s,
                "sim_io_s": self.sim_io_s,
                "cost_s": self.elapsed_s + self.sim_io_s,
                "totals": dict(self.totals),
            }
            worst = self.worst_misestimate()
            if worst is not None:
                payload["worst_misestimate"] = worst
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "QueryPlan":
        """Rebuild a plan from :meth:`to_dict` output."""
        plan = cls(
            cube=payload["cube"],
            backend=payload["backend"],
            fingerprint=payload["fingerprint"],
            planner=dict(payload.get("planner", {})),
            root=PlanNode.from_dict(payload["plan"]),
            analyzed=bool(payload.get("analyzed", False)),
        )
        execution = payload.get("execution")
        if execution:
            plan.rows = int(execution.get("rows", 0))
            plan.elapsed_s = float(execution.get("elapsed_s", 0.0))
            plan.sim_io_s = float(execution.get("sim_io_s", 0.0))
            plan.totals = dict(execution.get("totals", {}))
        return plan


# -- text rendering -----------------------------------------------------------


def _fmt(value) -> str:
    if isinstance(value, float) and not value.is_integer():
        return f"{value:.4g}"
    try:
        return f"{int(value)}"
    except (TypeError, ValueError):
        return str(value)


def _node_line(node: PlanNode) -> str:
    parts = [node.op]
    if node.detail:
        parts.append(
            " ".join(f"{k}={v}" for k, v in sorted(node.detail.items()))
        )
    if node.estimates:
        rendered = " ".join(
            f"{k}={_fmt(v)}" for k, v in sorted(node.estimates.items())
        )
        parts.append(f"est{{{rendered}}}")
    if node.actuals is not None:
        rendered = " ".join(
            f"{k}={_fmt(v)}" for k, v in sorted(node.actuals.items())
        )
        parts.append(f"act{{{rendered}}}")
        worst = node.worst_misestimate()
        if worst is not None:
            parts.append(f"worst=x{worst:.2f}")
    if node.duration_s is not None:
        parts.append(f"[{node.duration_s * 1000:.2f} ms]")
    return "  ".join(parts)


def _render_children(node: PlanNode, prefix: str, lines: list[str]) -> None:
    for i, child in enumerate(node.children):
        last = i == len(node.children) - 1
        connector = "└─ " if last else "├─ "
        lines.append(prefix + connector + _node_line(child))
        _render_children(child, prefix + ("   " if last else "│  "), lines)


def render_plan(plan: QueryPlan) -> str:
    """Render a plan as an indented text tree (the CLI's default view).

    Estimates show as ``est{...}``, ANALYZE actuals as ``act{...}`` with
    the node's worst misestimate factor; planner context heads the tree.
    """
    verb = "EXPLAIN ANALYZE" if plan.analyzed else "EXPLAIN"
    lines = [
        f"{verb}  cube={plan.cube} backend={plan.backend}",
        "planner: "
        + " ".join(
            f"{k}={v}"
            for k, v in sorted(plan.planner.items())
            if k != "available_backends"
        ),
    ]
    if plan.analyzed:
        lines.append(
            f"execution: rows={plan.rows} elapsed={plan.elapsed_s:.6f}s "
            f"sim_io={plan.sim_io_s:.6f}s"
        )
        worst = plan.worst_misestimate()
        if worst is not None:
            lines.append(f"worst misestimate: x{worst:.2f}")
    lines.append(_node_line(plan.root))
    _render_children(plan.root, "", lines)
    return "\n".join(lines)

