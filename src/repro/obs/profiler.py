"""A thread-sampling wall-clock profiler attributing time to spans.

Histograms say how slow; a slow query's trace says why it was
slow; the profiler says where the *process* spends its wall-clock time
while serving.  A daemon thread periodically snapshots every thread's
Python frame via ``sys._current_frames()`` and classifies each
(thread, tick) sample:

- **span** — the thread is inside at least one live tracer span (the
  cross-thread view from
  :func:`repro.obs.tracer.current_span_stacks`): the sample is
  attributed to the innermost span, keyed by the whole span-name path
  (``serve_query;query;probe_chunks``) so the output collapses
  directly into a flame view;
- **idle** — the innermost frame is a known stdlib wait (lock/condition
  waits, selectors, ``time.sleep``, socket accept/recv, queue gets):
  parked threads are not engine work;
- **other** — busy Python outside any span, keyed by
  ``module:function`` of the innermost frame (instrumentation gaps
  show up here instead of silently vanishing).

The profiler's own thread — and any thread whose name matches
``exclude_prefixes`` (the observability stack's samplers and HTTP
handlers) — is skipped entirely: a profiler that mostly profiles
itself is noise.
"""

from __future__ import annotations

import sys
import threading
from collections import Counter

from repro.obs.tracer import current_span_stacks

#: innermost co_names that mean "parked, not working"
_IDLE_FUNCTIONS = frozenset(
    {
        "wait",
        "wait_for",
        "sleep",
        "select",
        "poll",
        "accept",
        "recv",
        "recv_into",
        "read",
        "readinto",
        "get",
        "acquire",
        "_wait_for_tstate_lock",
        "epoll",
        "kqueue",
        # a ThreadPoolExecutor worker parked on SimpleQueue.get: the get
        # is C code, so the pool loop is the innermost Python frame
        "_worker",
    }
)

#: filename fragments that mean the frame is stdlib plumbing where a
#: blocked thread parks (not repro code doing work)
_IDLE_FILES = (
    "threading.py",
    "selectors.py",
    "queue.py",
    "socket.py",
    "socketserver.py",
    "ssl.py",
    "concurrent/futures",
    "concurrent\\futures",
)


def _is_idle(frame) -> bool:
    name = frame.f_code.co_name
    filename = frame.f_code.co_filename
    if name in _IDLE_FUNCTIONS and any(
        fragment in filename for fragment in _IDLE_FILES
    ):
        return True
    # time.sleep has no Python frame of its own; the caller shows as the
    # innermost frame, so catch the canonical sleep wrappers too
    if name == "sleep":
        return True
    return False


class SamplingProfiler:
    """Wall-clock sampling profiler over every thread in the process."""

    def __init__(
        self,
        interval_s: float = 0.005,
        exclude_prefixes: tuple[str, ...] = ("repro-obs",),
    ):
        self.interval_s = interval_s
        self.exclude_prefixes = exclude_prefixes
        self._lock = threading.Lock()
        self._span_samples: Counter[tuple[str, ...]] = Counter()
        self._other_samples: Counter[str] = Counter()
        self._idle = 0
        self._ticks = 0
        self._thread: threading.Thread | None = None
        self._stop = threading.Event()

    # -- sampling ------------------------------------------------------------

    def _excluded_idents(self) -> set[int]:
        excluded = {threading.get_ident()}
        for thread in threading.enumerate():
            if thread.ident is None:
                continue
            if any(
                thread.name.startswith(prefix)
                for prefix in self.exclude_prefixes
            ):
                excluded.add(thread.ident)
        return excluded

    def sample_once(self) -> int:
        """Take one tick over all threads; returns samples recorded."""
        excluded = self._excluded_idents()
        stacks = current_span_stacks()
        frames = sys._current_frames()
        span_hits: list[tuple[str, ...]] = []
        other_hits: list[str] = []
        idle = 0
        for ident, frame in frames.items():
            if ident in excluded:
                continue
            names = stacks.get(ident)
            if names:
                span_hits.append(tuple(names))
            elif _is_idle(frame):
                idle += 1
            else:
                code = frame.f_code
                module = code.co_filename.rsplit("/", 1)[-1]
                other_hits.append(f"{module}:{code.co_name}")
        with self._lock:
            self._ticks += 1
            self._idle += idle
            for key in span_hits:
                self._span_samples[key] += 1
            for key in other_hits:
                self._other_samples[key] += 1
        return len(span_hits) + len(other_hits) + idle

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "SamplingProfiler":
        """Run the sampler on a daemon thread; returns self."""
        if self._thread is not None:
            return self

        def run() -> None:
            while not self._stop.is_set():
                self.sample_once()
                self._stop.wait(self.interval_s)

        self._stop.clear()
        self._thread = threading.Thread(
            target=run, name="repro-obs-profiler", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        if self._thread is None:
            return
        self._stop.set()
        self._thread.join(timeout=5)
        self._thread = None

    @property
    def running(self) -> bool:
        return self._thread is not None

    def reset(self) -> None:
        """Drop every accumulated sample (the profiler keeps running)."""
        with self._lock:
            self._span_samples.clear()
            self._other_samples.clear()
            self._idle = 0
            self._ticks = 0

    # -- reading -------------------------------------------------------------

    @property
    def ticks(self) -> int:
        with self._lock:
            return self._ticks

    def stats(self) -> dict:
        """Sample-class totals."""
        with self._lock:
            span = sum(self._span_samples.values())
            other = sum(self._other_samples.values())
            idle = self._idle
            ticks = self._ticks
        return {
            "ticks": ticks,
            "samples": span + other + idle,
            "span_samples": span,
            "other_samples": other,
            "idle_samples": idle,
        }

    def collapsed(self) -> dict[str, int]:
        """Collapsed-stack output: ``"a;b;c" -> samples`` (span paths),
        plus ``"(other);module:function"`` buckets for unattributed busy
        samples — the format flamegraph tooling eats directly."""
        with self._lock:
            out = {
                ";".join(path): count
                for path, count in self._span_samples.items()
            }
            for key, count in self._other_samples.items():
                out[f"(other);{key}"] = count
        return dict(sorted(out.items(), key=lambda kv: (-kv[1], kv[0])))

    def to_dict(self) -> dict:
        """The ``/profile`` JSON body."""
        payload = self.stats()
        payload["running"] = self.running
        payload["interval_s"] = self.interval_s
        payload["collapsed"] = self.collapsed()
        return payload

    def render_flame(self, width: int = 60, max_rows: int = 20) -> str:
        """A terminal flame view: one bar per collapsed stack."""
        collapsed = self.collapsed()
        stats = self.stats()
        busy = stats["span_samples"] + stats["other_samples"]
        lines = [
            f"profile: {stats['samples']} samples over {stats['ticks']} "
            f"ticks  (busy {busy}, idle {stats['idle_samples']})"
        ]
        if not collapsed:
            lines.append("  (no busy samples)")
            return "\n".join(lines)
        top = max(collapsed.values())
        for stack, count in list(collapsed.items())[:max_rows]:
            bar = "█" * max(1, round(width * count / top))
            lines.append(f"{count:>6}  {bar:<{width}}  {stack}")
        if len(collapsed) > max_rows:
            lines.append(f"  ... {len(collapsed) - max_rows} more stacks")
        return "\n".join(lines)

