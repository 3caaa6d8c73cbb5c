"""Tests for the span tracer: nesting, deltas, the no-op default."""

import pytest

from repro.obs import (
    NULL_TRACER,
    MetricsRegistry,
    Tracer,
    get_tracer,
    thread_tracing,
)
from repro.util.stats import Counters


class TestNesting:
    def test_spans_nest_into_a_tree(self):
        tracer = Tracer()
        with tracer.span("root"):
            with tracer.span("a"):
                with tracer.span("a1"):
                    pass
            with tracer.span("b"):
                pass
        assert len(tracer.roots) == 1
        root = tracer.roots[0]
        assert [c.name for c in root.children] == ["a", "b"]
        assert [c.name for c in root.children[0].children] == ["a1"]

    def test_sibling_roots(self):
        tracer = Tracer()
        with tracer.span("first"):
            pass
        with tracer.span("second"):
            pass
        assert [s.name for s in tracer.roots] == ["first", "second"]

    def test_current_tracks_innermost(self):
        tracer = Tracer()
        assert tracer.current() is None
        with tracer.span("outer") as outer:
            assert tracer.current() is outer
            with tracer.span("inner") as inner:
                assert tracer.current() is inner
            assert tracer.current() is outer
        assert tracer.current() is None

    def test_stack_unwinds_on_exception(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("doomed"):
                raise ValueError("boom")
        assert tracer.current() is None
        assert tracer.roots[0].duration_s >= 0

    def test_attrs_and_annotate(self):
        tracer = Tracer()
        with tracer.span("phase", k=1) as span:
            span.annotate(extra="yes")
        assert tracer.roots[0].attrs == {"k": 1, "extra": "yes"}

    def test_walk_and_find(self):
        tracer = Tracer()
        with tracer.span("root"):
            with tracer.span("a"):
                with tracer.span("needle"):
                    pass
        root = tracer.roots[0]
        assert [s.name for s in root.walk()] == ["root", "a", "needle"]
        assert root.find("needle").name == "needle"
        assert root.find("missing") is None


class TestCounterDeltas:
    def make(self):
        registry, bag = MetricsRegistry(), Counters()
        registry.register("bag", bag)
        return Tracer(registry=registry), bag

    def test_span_captures_inclusive_delta(self):
        tracer, bag = self.make()
        bag.add("reads", 5)  # pre-existing work must not leak in
        with tracer.span("root"):
            bag.add("reads", 2)
            with tracer.span("child"):
                bag.add("reads", 3)
        root = tracer.roots[0]
        assert root.io == {"reads": 5}
        assert root.children[0].io == {"reads": 3}

    def test_self_io_is_exclusive(self):
        tracer, bag = self.make()
        with tracer.span("root"):
            bag.add("reads", 2)
            with tracer.span("child"):
                bag.add("reads", 3)
        root = tracer.roots[0]
        assert root.self_io() == {"reads": 2}

    def test_leaf_totals_telescope_to_root(self):
        tracer, bag = self.make()
        with tracer.span("root"):
            bag.add("a", 1.1)
            with tracer.span("x"):
                bag.add("a", 2.2)
                bag.add("b", 1)
            with tracer.span("y"):
                bag.add("a", 3.3)
        root = tracer.roots[0]
        assert root.leaf_io_totals() == root.io

    def test_no_registry_means_no_io(self):
        tracer = Tracer()
        with tracer.span("root"):
            pass
        assert tracer.roots[0].io == {}


class TestDisabledTracer:
    def test_default_active_tracer_is_null(self):
        assert get_tracer() is NULL_TRACER
        assert not NULL_TRACER.enabled

    def test_null_spans_are_one_shared_object(self):
        a = NULL_TRACER.span("x", attr=1)
        b = NULL_TRACER.span("y")
        assert a is b  # no per-call allocation
        with a as span:
            span.annotate(ignored=True)

    def test_tracing_installs_and_restores(self):
        tracer = Tracer()
        with thread_tracing(tracer) as active:
            assert active is tracer
            assert get_tracer() is tracer
        assert get_tracer() is NULL_TRACER

    def test_tracing_restores_previous_tracer(self):
        outer, inner = Tracer(), Tracer()
        with thread_tracing(outer):
            with thread_tracing(inner):
                assert get_tracer() is inner
            assert get_tracer() is outer
        assert get_tracer() is NULL_TRACER
