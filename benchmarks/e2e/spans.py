"""Layer-boundary spans recorded from outside the program.

For the traced pass the benchmark wraps each layer's public entry
points (see :data:`TARGETS`) with a recorder that notes name, start,
end and the span that caused it.  Nothing under ``src/`` changes: the
wrappers are installed on the imported classes and modules, and removed
again after the pass.  Spans stay in memory until the run ends.

A span's parent is the innermost open span on its own thread; a span
that opens on a thread with none (the HTTP handler thread, the
service's pool thread) is adopted by the innermost span open anywhere —
with one closed-loop client that is the caller blocked waiting for it.
The rollup router's refresh thread is the exception: nobody waits for
it, so its spans start trees of their own, which the per-op sums leave
out.
"""

from __future__ import annotations

import http.server
import importlib
import inspect
import json
import sys
import threading
import time

#: layer -> [(module, attribute path)] wrapped for the traced pass
TARGETS = {
    "api": [
        ("repro.api.server", "ApiEndpoint.aggregate"),
        ("repro.api.server", "RequestParser.from_params"),
        ("repro.api.server", "RequestParser.from_body"),
        ("repro.api.rollup", "RollupRouter.route"),
        ("repro.api.rollup", "RollupRouter.try_rows"),
        ("repro.api.rollup", "RollupRouter.scan"),
    ],
    "serve": [
        ("repro.serve.service", "QueryService.execute"),
        ("repro.serve.service", "QueryService.write_cell"),
        ("repro.serve.fingerprint", "query_fingerprint"),
        ("repro.serve.result_cache", "ResultCache.get"),
        ("repro.serve.result_cache", "ResultCache.put"),
        ("repro.serve.chunk_cache", "ChunkCache.get_chunk"),
    ],
    "olap": [
        ("repro.olap.engine", "OlapEngine.query"),
        ("repro.olap.engine", "OlapEngine.write_cell"),
        ("repro.olap.planner", "choose_backend_explained"),
    ],
    "core.scan": [
        ("repro.core.consolidate", "consolidate"),
        ("repro.core.consolidate", "scan_chunk_range"),
        ("repro.core.consolidate", "ResultAccumulator.add_many"),
        ("repro.core.consolidate", "ResultAccumulator.rows"),
        ("repro.core.select_consolidate", "consolidate_with_selection"),
    ],
    "core.array": [
        ("repro.core.olap_array", "OLAPArray.read_chunk"),
        ("repro.core.olap_array", "OLAPArray.write_cell"),
    ],
    "core.decode": [("repro.core.compression", "decode_chunk")],
    "index": [
        ("repro.index.btree", "BTree.search"),
        ("repro.index.btree", "BTree.range_search"),
        ("repro.index.bitmap", "BitmapIndex.bitmap_for"),
        ("repro.index.bitmap", "BitmapIndex.bitmap_for_range"),
        ("repro.index.bitmap", "BitmapIndex.bitmap_for_any"),
    ],
    "relational": [
        ("repro.relational.bitmap_select", "bitmap_select_consolidate"),
        ("repro.relational.fact_file", "FactFile.fetch_bitmap"),
        ("repro.relational.fact_file", "FactFile.scan"),
    ],
    "storage.pool": [
        ("repro.storage.buffer_pool", "BufferPool.get"),
        ("repro.storage.buffer_pool", "BufferPool.write"),
        ("repro.storage.buffer_pool", "BufferPool.commit"),
    ],
    "storage.lob": [
        ("repro.storage.large_object", "LargeObjectStore.read"),
        ("repro.storage.large_object", "LargeObjectStore.create"),
    ],
    "storage.disk": [
        ("repro.storage.disk", "SimulatedDisk.read_page"),
        ("repro.storage.disk", "SimulatedDisk.write_page"),
    ],
    "storage.wal": [
        ("repro.storage.wal", "WriteAheadLog.log_page"),
        ("repro.storage.wal", "WriteAheadLog.log_commit"),
        ("repro.storage.wal", "WriteAheadLog.sync"),
    ],
}

#: ``RollupRouter``'s refresh worker, by the name the program gives it
BACKGROUND_THREAD = "rollup-refresh"

#: every layer a self time is reported for, the driver's own included
LAYERS = tuple(TARGETS) + ("driver",)


class _JsonProxy:
    """Stands in for the ``json`` module inside ``repro.api.server`` so
    the handler's ``json.dumps`` gets a span without touching anyone
    else's ``json``."""

    def __init__(self, dumps):
        self.dumps = dumps

    def __getattr__(self, name):
        return getattr(json, name)


class SpanRecorder:
    """Records spans as ``[name, start_ns, end_ns, parent]`` lists."""

    def __init__(self):
        self.spans: list[list] = []
        self._local = threading.local()
        #: spans open on any thread, oldest first (cross-thread adoption)
        self._open: list[list] = []
        self._undo: list[tuple] = []

    # -- recording ----------------------------------------------------------------

    def begin(self, name: str, root: bool = False) -> list:
        """Open a span; ``root=True`` (the driver's per-op span) never
        takes a parent, even if a handler thread is still finishing the
        previous request."""
        try:
            stack = self._local.stack
        except AttributeError:
            stack = self._local.stack = []
        if stack and not root:
            parent = stack[-1]
        elif root or threading.current_thread().name == BACKGROUND_THREAD:
            parent = None
        else:
            parent = self._open[-1] if self._open else None
        span = [name, time.perf_counter_ns(), 0, parent]
        stack.append(span)
        self._open.append(span)
        return span

    def end(self, span: list) -> None:
        span[2] = time.perf_counter_ns()
        self._local.stack.pop()
        if self._open and self._open[-1] is span:
            self._open.pop()
        else:  # another thread opened a span in between
            self._open.remove(span)
        self.spans.append(span)

    def _wrap(self, name: str, func):
        begin, end = self.begin, self.end
        if inspect.isgeneratorfunction(func):
            # one span per resumption: the consumer's work between two
            # items is the consumer's, not this layer's
            def wrapper(*args, **kwargs):
                iterator = func(*args, **kwargs)
                while True:
                    span = begin(name)
                    try:
                        item = next(iterator)
                    except StopIteration:
                        return
                    finally:
                        end(span)
                    yield item

        else:

            def wrapper(*args, **kwargs):
                span = begin(name)
                try:
                    return func(*args, **kwargs)
                finally:
                    end(span)

        wrapper.__wrapped__ = func
        wrapper.__name__ = getattr(func, "__name__", name)
        return wrapper

    # -- installing -----------------------------------------------------------------

    def _set(self, owner, attribute: str, value) -> None:
        self._undo.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, value)

    def install(self) -> None:
        """Wrap every target.  Module-level functions are rebound in
        every loaded ``repro`` module that imported them by name."""
        for layer, targets in TARGETS.items():
            for module_name, path in targets:
                module = importlib.import_module(module_name)
                name = f"{layer}:{path}"
                if "." in path:
                    class_name, method = path.split(".")
                    owner = getattr(module, class_name)
                    self._set(owner, method, self._wrap(name, owner.__dict__[method]))
                    continue
                original = getattr(module, path)
                wrapped = self._wrap(name, original)
                for loaded_name, loaded in list(sys.modules.items()):
                    if loaded is None or not loaded_name.startswith("repro"):
                        continue
                    if loaded.__dict__.get(path) is original:
                        self._set(loaded, path, wrapped)
        server = importlib.import_module("repro.api.server")
        self._set(
            server, "json", _JsonProxy(self._wrap("api:json.dumps", json.dumps))
        )
        handler = http.server.BaseHTTPRequestHandler
        self._set(
            handler,
            "handle_one_request",
            self._wrap("api:http.handle_one_request", handler.handle_one_request),
        )

    def uninstall(self) -> None:
        while self._undo:
            owner, attribute, original = self._undo.pop()
            setattr(owner, attribute, original)

    # -- output ---------------------------------------------------------------------

    def to_json(self) -> list[dict]:
        """Spans with integer ids, parents resolved, times in µs from
        the first span's start."""
        ids = {id(span): i for i, span in enumerate(self.spans)}
        origin = min((span[1] for span in self.spans), default=0)
        return [
            {
                "id": i,
                "name": span[0],
                "start_us": (span[1] - origin) / 1000.0,
                "end_us": (span[2] - origin) / 1000.0,
                "parent": ids.get(id(span[3])) if span[3] is not None else None,
            }
            for i, span in enumerate(self.spans)
        ]
