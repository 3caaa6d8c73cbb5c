"""Span-based tracing of query phases.

A :class:`Tracer` records the nested phases of a query — B-tree
dimension lookups, chunk-meta directory reads, chunk fetch/decompress,
offset probes, accumulation, partition merges, hash-table build/probe —
as a tree of :class:`Span` objects.  Each span carries its wall-clock
duration and, when the tracer is bound to a
:class:`~repro.obs.registry.MetricsRegistry`, the
:func:`~repro.util.stats.counter_delta` of the registry's per-source
snapshots at span entry and exit, so the simulated-I/O accounting of §4
decomposes exactly over the span tree.  Sources only count up, so a
delta is never negative (bar the array keys a scan moves from the
array's bag to the query's, if another thread's span catches them in
between), and a span enclosing a whole query — a rollup rebuild, an
engine miss's ``serve_query`` — includes that query's own counters.  A
result-cache hit's ``serve_query`` is never opened: the service builds
it from the lookup's own timing and records it as it is (see
:meth:`Tracer.attach`), so it carries no counters and takes no snapshot.
The registry is process-wide: a span's delta covers everything done
while it was open, other threads' I/O included.

Instrumented call sites never pay for tracing unless it is on: a
thread's active tracer defaults to :data:`NULL_TRACER`, whose
``span()`` returns one shared no-op context manager.  Install a real
tracer on the calling thread with :class:`thread_tracing`::

    tracer = Tracer(registry=engine.db.metrics)
    with thread_tracing(tracer):
        result = engine.query(query, backend="array")
    print(tracer.roots[0].name)  # "query"

Span I/O deltas are *inclusive* of children; :meth:`Span.self_io` is
the exclusive share, and the exclusive shares telescope: summed over a
whole tree they reproduce the root's inclusive totals exactly (each
child's delta cancels between its own entry and its parent's
subtraction, even in floating point).
"""

from __future__ import annotations

import threading
import time

from repro.util.stats import Counters, counter_delta


class Span:
    """One traced phase: name, attributes, duration, counter deltas."""

    __slots__ = ("name", "attrs", "start_s", "duration_s", "io", "children")

    def __init__(self, name: str, attrs: dict | None = None):
        self.name = name
        self.attrs = attrs or {}
        self.start_s = 0.0
        self.duration_s = 0.0
        self.io: dict[str, float] = {}
        self.children: list[Span] = []

    def annotate(self, **attrs) -> None:
        """Attach extra attributes discovered mid-span."""
        self.attrs.update(attrs)

    def self_io(self) -> dict[str, float]:
        """This span's counter deltas minus its children's (exclusive)."""
        own = dict(self.io)
        for child in self.children:
            for name, value in child.io.items():
                own[name] = own.get(name, 0.0) - value
        return {k: v for k, v in own.items() if v}

    def walk(self):
        """Yield this span then every descendant, depth first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, name: str) -> "Span | None":
        """First span named ``name`` in this subtree, or ``None``."""
        for span in self.walk():
            if span.name == name:
                return span
        return None

    def leaf_io_totals(self) -> dict[str, float]:
        """Sum of every span's exclusive I/O over the subtree.

        By the telescoping property this equals :attr:`io` on the root —
        the invariant the trace CLI asserts against ``run_cold``'s cost
        report.
        """
        totals = Counters()
        for span in self.walk():
            for name, value in span.self_io().items():
                totals.add(name, value)
        return totals.snapshot()

    def __repr__(self) -> str:
        return (
            f"Span({self.name!r}, {self.duration_s:.6f}s, "
            f"children={len(self.children)})"
        )


class _NullSpan:
    """The shared do-nothing span handed out by :class:`NullTracer`."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        pass

    def annotate(self, **attrs) -> None:
        """Ignore attributes (matching :meth:`_LiveSpan.annotate`)."""


_NULL_SPAN = _NullSpan()


class NullTracer:
    """The zero-cost default: every span is the same no-op object."""

    enabled = False

    def span(self, name: str, **attrs) -> _NullSpan:
        """Return the shared no-op span context manager."""
        return _NULL_SPAN

    def attach(self, span: "Span") -> None:
        """Drop ``span`` (matching :meth:`Tracer.attach`)."""


class _LiveSpan:
    """Context manager that opens/closes one :class:`Span` on a tracer."""

    __slots__ = ("_tracer", "_span", "_before")

    def __init__(self, tracer: "Tracer", span: Span):
        self._tracer = tracer
        self._span = span
        self._before: dict[str, dict[str, float]] | None = None

    def __enter__(self) -> Span:
        tracer = self._tracer
        span = self._span
        tracer.attach(span)
        tracer._stack.append(span)
        if tracer.registry is not None:
            self._before = tracer.registry.snapshot_by_source()
        span.start_s = time.perf_counter()
        return span

    def __exit__(self, *exc_info) -> None:
        span = self._span
        span.duration_s = time.perf_counter() - span.start_s
        tracer = self._tracer
        if self._before is not None:
            span.io = counter_delta(
                self._before, tracer.registry.snapshot_by_source()
            )
        tracer._stack.pop()


class Tracer:
    """Records spans into a tree; optionally snapshots a registry.

    The span stack is per-thread: a span opened on a worker thread
    nests under that thread's innermost span, or starts a new root tree
    (thread-backed partitioned consolidation relies on this).  Counter deltas on concurrently open spans overlap — each
    span reports the registry delta over its own lifetime, whoever did
    the work.
    """

    enabled = True

    def __init__(self, registry=None):
        self.registry = registry
        self.roots: list[Span] = []
        self._local = threading.local()
        self._tree_lock = threading.Lock()

    @property
    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, **attrs) -> _LiveSpan:
        """Open a child span of the innermost active span (or a root)."""
        return _LiveSpan(self, Span(name, attrs))

    def attach(self, span: Span) -> None:
        """Add ``span`` under the innermost active span (or as a root)
        as it is: an already-timed span, never opened here, so no
        registry snapshot is taken for it."""
        stack = self._stack
        # span-tree mutation happens under the tree lock: threads may
        # share one tracer, and a root append must never race another
        # thread's child append mid-resize
        with self._tree_lock:
            if stack:
                stack[-1].children.append(span)
            else:
                self.roots.append(span)

    def current(self) -> Span | None:
        """The innermost active span, or ``None`` outside any span."""
        stack = self._stack
        return stack[-1] if stack else None


NULL_TRACER = NullTracer()

_thread_active = threading.local()


def get_tracer() -> Tracer | NullTracer:
    """The tracer :class:`thread_tracing` installed on this thread, else
    the no-op :data:`NULL_TRACER`."""
    return getattr(_thread_active, "tracer", None) or NULL_TRACER


class thread_tracing:
    """Install a tracer for a ``with`` block on *this thread only*::

        with thread_tracing(Tracer(registry=db.metrics)) as tracer:
            engine.query(...)
        tracer.roots[0]

    The serving layer captures each miss's span tree this way, on the
    caller's thread, in place of any tracer the caller installed.
    Inside the block, this thread's
    :func:`get_tracer` returns ``tracer``; other threads are unaffected.
    """

    def __init__(self, tracer: Tracer | NullTracer):
        self.tracer = tracer
        self._previous: Tracer | NullTracer | None = None

    def __enter__(self) -> Tracer | NullTracer:
        self._previous = getattr(_thread_active, "tracer", None)
        _thread_active.tracer = self.tracer
        return self.tracer

    def __exit__(self, *exc_info) -> None:
        _thread_active.tracer = self._previous
