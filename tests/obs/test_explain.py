"""Unit tests for the EXPLAIN plan model and its rendering."""

import json

import pytest

from repro.obs.explain import (
    MISESTIMATE_FACTOR_THRESHOLD,
    PlanNode,
    QueryPlan,
    attach_actuals,
    render_plan,
)
from repro.obs.tracer import Tracer


def _tree():
    root = PlanNode("array.query", span="query", detail={"cube": "c"})
    scan = root.add(
        PlanNode(
            "array.scan_chunks",
            span="scan_chunks",
            estimates={"chunks_read": 8, "cells_scanned": 100},
        )
    )
    root.add(PlanNode("array.extract_rows"))
    return root, scan


class TestPlanNode:
    def test_walk_is_depth_first_and_inclusive(self):
        root, _ = _tree()
        assert [n.op for n in root.walk()] == [
            "array.query", "array.scan_chunks", "array.extract_rows",
        ]

    def test_misestimates_empty_before_analyze(self):
        _, scan = _tree()
        assert scan.misestimates() == {}
        assert scan.worst_misestimate() is None

    def test_misestimate_ratio_is_add_one_smoothed(self):
        _, scan = _tree()
        scan.actuals = {"chunks_read": 8, "cells_scanned": 49}
        ratios = scan.misestimates()
        assert ratios["chunks_read"] == pytest.approx(1.0)
        assert ratios["cells_scanned"] == pytest.approx(50.0 / 101.0)
        # worst is symmetric: an over-estimate counts like an under-estimate
        assert scan.worst_misestimate() == pytest.approx(101.0 / 50.0)

    def test_zero_estimate_stays_finite(self):
        node = PlanNode("x", estimates={"skips": 0})
        node.actuals = {"skips": 3}
        assert node.misestimates()["skips"] == pytest.approx(4.0)

    def test_missing_actual_counter_reads_as_zero(self):
        node = PlanNode("x", estimates={"probes": 4})
        node.actuals = {}
        assert node.misestimates()["probes"] == pytest.approx(1.0 / 5.0)

    def test_dict_round_trip_preserves_analysis(self):
        root, scan = _tree()
        scan.actuals = {"chunks_read": 9, "cells_scanned": 100}
        scan.duration_s = 0.005
        clone = PlanNode.from_dict(json.loads(json.dumps(root.to_dict())))
        assert [n.op for n in clone.walk()] == [n.op for n in root.walk()]
        cloned_scan = clone.children[0]
        assert cloned_scan.actuals == {"chunks_read": 9, "cells_scanned": 100}
        assert cloned_scan.worst_misestimate() == scan.worst_misestimate()
        # the unanalyzed sibling stays unanalyzed after the round trip
        assert clone.children[1].actuals is None

    def test_threshold_is_a_factor_of_two(self):
        assert MISESTIMATE_FACTOR_THRESHOLD == 2.0


class TestAttachActuals:
    def test_actuals_come_from_named_spans(self):
        tracer = Tracer()
        with tracer.span("query"):
            with tracer.span("scan_chunks") as span:
                span.io["chunks_read"] = 8.0
                span.io["cells_scanned"] = 100.0
        root, scan = _tree()
        attach_actuals(root, tracer.roots[0])
        assert scan.actuals == {"chunks_read": 8.0, "cells_scanned": 100.0}
        assert scan.duration_s is not None
        # descriptive node (span=None) stays unanalyzed
        assert root.children[1].actuals is None

    def test_skipped_phase_gets_empty_actuals(self):
        tracer = Tracer()
        with tracer.span("query"):
            pass
        root, scan = _tree()
        attach_actuals(root, tracer.roots[0])
        assert scan.actuals == {}
        assert scan.worst_misestimate() is not None  # counted as zero


def _plan(analyzed=False):
    root, scan = _tree()
    plan = QueryPlan(
        cube="c",
        backend="array",
        fingerprint="f" * 32,
        planner={"requested": "auto", "reason": "no-selections"},
        root=root,
    )
    if analyzed:
        scan.actuals = {"chunks_read": 20, "cells_scanned": 100}
        plan.analyzed = True
        plan.rows = 27
        plan.elapsed_s = 0.001
        plan.sim_io_s = 0.1
        plan.totals = {"chunks_read": 20.0}
    return plan


class TestQueryPlan:
    def test_worst_misestimate_spans_all_nodes(self):
        assert _plan().worst_misestimate() is None
        plan = _plan(analyzed=True)
        assert plan.worst_misestimate() == pytest.approx(21.0 / 9.0)

    def test_to_dict_shape_estimate_only(self):
        payload = _plan().to_dict()
        assert payload["analyzed"] is False
        assert "execution" not in payload
        assert payload["plan"]["op"] == "array.query"

    def test_to_dict_shape_analyzed(self):
        payload = _plan(analyzed=True).to_dict()
        assert payload["analyzed"] is True
        execution = payload["execution"]
        assert execution["rows"] == 27
        assert execution["cost_s"] == pytest.approx(0.101)
        assert payload["worst_misestimate"] == pytest.approx(21.0 / 9.0)

    def test_from_dict_round_trip(self):
        plan = _plan(analyzed=True)
        clone = QueryPlan.from_dict(json.loads(json.dumps(plan.to_dict())))
        assert clone.fingerprint == plan.fingerprint
        assert clone.analyzed and clone.rows == 27
        assert clone.worst_misestimate() == pytest.approx(
            plan.worst_misestimate()
        )


class TestRenderPlan:
    def test_estimate_only_rendering(self):
        text = render_plan(_plan())
        assert text.startswith("EXPLAIN  cube=c backend=array")
        assert "est{cells_scanned=100 chunks_read=8}" in text
        assert "act{" not in text
        assert "├─" in text and "└─" in text

    def test_analyzed_rendering_has_actuals_and_worst(self):
        text = render_plan(_plan(analyzed=True))
        assert text.startswith("EXPLAIN ANALYZE")
        assert "act{cells_scanned=100 chunks_read=20}" in text
        assert "worst=x2.33" in text
        assert "execution: rows=27" in text

    def test_planner_line_hides_available_backends(self):
        plan = _plan()
        plan.planner["available_backends"] = ["array", "starjoin"]
        text = render_plan(plan)
        assert "available_backends" not in text
        assert "requested=auto" in text
