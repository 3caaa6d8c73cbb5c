"""Running one pass of a workload's op list against its stack.

A single closed-loop client issues the ops in order; only the call
into the program's public entry point is timed.  Everything else a
pass does — comparing the answer with the oracle, noting the slot's
cache/route outcome, waiting for rollup refreshes to settle — happens
between timed regions.
"""

from __future__ import annotations

import http.client
import json
import time
import urllib.parse
from dataclasses import dataclass, field

from benchmarks.e2e import calibration
from benchmarks.e2e.oracle import digest, rows_equal

#: ``QueryResult.stats`` keys summed per pass for the per-layer counts
STAT_KEYS = (
    "pages_read", "seeks", "bytes_read", "pool_hits", "pool_misses",
    "chunks_read", "cells_scanned", "bitmaps_fetched", "fact_tuples_fetched",
)

#: outcomes that cost well under a millisecond of the program's own work
#: (a result-cache hit, a rollup-routed request) ...
CHEAP_TAGS = ("hit", "rollup")
#: ... are issued this many times per pass, the fastest one counting
CHEAP_REPEATS = 5

#: give up on a rollup refresh that has not settled after this long
REFRESH_TIMEOUT_S = 30.0


@dataclass
class PassResult:
    """What one pass measured."""

    latencies: list[float]
    #: per slot, the latency of its first issue (a cheap op is issued
    #: several times; a traced pass issues every op once)
    first_latencies: list[float]
    #: per slot: backend (cold), hit/miss (serve), rollup/base (api), write
    tags: list[str]
    failures: list[str] = field(default_factory=list)
    #: summed ``QueryResult.stats`` plus workload-specific counts
    counts: dict = field(default_factory=dict)
    #: first op start to last op end, refresh waits excluded
    wall_s: float = 0.0
    refresh_wait_s: float = 0.0
    #: one reference-kernel timing per slot, taken between ops
    kernel_s: list[float] = field(default_factory=list)

    @property
    def slowdown(self) -> float:
        """The host's speed during this pass (1.0 = reference)."""
        return calibration.slowdown(self.kernel_s)

    @property
    def scaled_latencies(self) -> list[float]:
        """The latencies at reference host speed: each divided by the
        host's slowdown around its own op."""
        return [
            latency / slow
            for latency, slow in zip(
                self.latencies, calibration.local_slowdowns(self.kernel_s)
            )
        ]


def _query_of(cube: str, op: dict):
    from repro.olap.query import ConsolidationQuery, SelectionPredicate

    selections = []
    for where in op["where"]:
        if "values" in where:
            selections.append(
                SelectionPredicate.in_list(
                    where["dim"], where["attr"], *where["values"]
                )
            )
        else:
            selections.append(
                SelectionPredicate.between(
                    where["dim"], where["attr"], where["low"], where["high"]
                )
            )
    return ConsolidationQuery.build(
        cube,
        group_by={dim: attr for dim, attr in op["group_by"]},
        selections=selections,
        aggregate=op["aggregate"],
    )


def http_request_of(op: dict) -> tuple[str, str, bytes | None]:
    """``(method, path, body)`` of one ``api_replay`` read."""
    path = "/cube/sales/aggregate"
    drilldown = [f"{dim}:{attr}" for dim, attr in op["group_by"]]
    if op["method"] == "POST":
        body = {"drilldown": drilldown, "aggregate": op["aggregate"]}
        cuts = []
        for where in op["where"]:
            cut = {"dimension": where["dim"], "level": where["attr"]}
            if "values" in where:
                cut["values"] = where["values"]
            else:
                cut["range"] = [where["low"], where["high"]]
            cuts.append(cut)
        if cuts:
            body["cut"] = cuts
        return "POST", path, json.dumps(body).encode("utf-8")
    params = {"drilldown": ",".join(drilldown)}
    if op["aggregate"] != "sum":
        params["aggregate"] = op["aggregate"]
    cuts = []
    for where in op["where"]:
        if "values" in where:
            spec = ";".join(str(v) for v in where["values"])
        else:
            spec = f"{where['low']}..{where['high']}"
        cuts.append(f"{where['dim']}.{where['attr']}:{spec}")
    if cuts:
        params["cut"] = "|".join(cuts)
    return "GET", path + "?" + urllib.parse.urlencode(params), None


class Runner:
    """Replays one op list against one stack, pass after pass."""

    def __init__(self, stack, ops: list[dict]):
        self.stack = stack
        self.ops = ops
        self.workload = stack.workload
        self.read_slots = [i for i, op in enumerate(ops) if op["kind"] == "read"]
        self.write_slots = [i for i, op in enumerate(ops) if op["kind"] == "write"]
        if self.workload == "api_replay":
            self._compiled = [
                http_request_of(op) if op["kind"] == "read" else None
                for op in ops
            ]
        else:
            self._compiled = [
                _query_of(stack.cube, op) if op["kind"] == "read" else None
                for op in ops
            ]
        #: per slot, the digest of the answer the oracle confirmed
        self.expected: list[tuple | None] = [None] * len(ops)
        self.tags: list[str] | None = None
        #: the writes the program acknowledged, keys -> value
        self.acknowledged: dict[tuple, int] = {}
        self.attempted = 0
        self._folds: dict[tuple, list[tuple]] = {}
        self._data_version = 0

    # -- one op, timed ----------------------------------------------------------

    def _cold_read(self, slot: int):
        backend = "array" if self.workload == "scan_cold" else "auto"
        result = self.stack.engine.query(
            self._compiled[slot], backend=backend, mode="auto", cold=True
        )
        return result.backend, result.rows, result.stats

    def _service_read(self, slot: int):
        result = self.stack.service.execute(self._compiled[slot])
        if result.stats.get("result_cache_hit"):
            return "hit", result.rows, None
        return "miss", result.rows, result.stats

    def _http_read(self, slot: int):
        method, path, body = self._compiled[slot]
        server = self.stack.server
        connection = http.client.HTTPConnection(server.host, server.port, timeout=60)
        try:
            headers = {"Content-Type": "application/json"} if body else {}
            connection.request(method, path, body=body, headers=headers)
            response = connection.getresponse()
            raw = response.read()
        finally:
            connection.close()
        if response.status != 200:
            raise RuntimeError(f"HTTP {response.status}: {raw[:200]!r}")
        payload = json.loads(raw)
        return payload["route"]["source"], payload, {"response_bytes": len(raw)}

    def _write(self, slot: int):
        op = self.ops[slot]
        self.stack.service.write_cell(
            self.stack.cube, tuple(op["keys"]), (op["value"],)
        )
        return "write", None, None

    # -- between ops --------------------------------------------------------------

    def _rows_of(self, slot: int, answer) -> list[tuple]:
        if self.workload != "api_replay":
            return answer
        op = self.ops[slot]
        labels = [f"{dim}.{attr}" for dim, attr in op["group_by"]] + ["volume"]
        return [tuple(cell[label] for label in labels) for cell in answer["cells"]]

    def _fold(self, op: dict) -> list[tuple]:
        """The oracle's answer, folded once per (query, data version)."""
        key = (
            json.dumps([op["group_by"], op["where"], op["aggregate"]]),
            self._data_version,
        )
        if key not in self._folds:
            self._folds[key] = self.stack.cells.fold(op)
        return self._folds[key]

    def _check(self, slot: int, answer, oracle_pass: bool) -> str | None:
        rows = self._rows_of(slot, answer)
        if oracle_pass:
            expected = self._fold(self.ops[slot])
            if not rows_equal(rows, expected):
                return (
                    f"slot {slot}: {len(rows)} rows differ from the oracle's "
                    f"{len(expected)}"
                )
            self.expected[slot] = digest(rows)
        elif digest(rows) != self.expected[slot]:
            return f"slot {slot}: answer changed since the oracle pass"
        return None

    def _settle_refreshes(self, route: dict, aggregate: str) -> float:
        """Wait until the grain the request was routed to is fresh again.

        Freshness is asked of the router itself (``try_rows``), not read
        off its counters: a rebuild is counted before its rows are
        stored, and a refresh scheduled while another finishes is
        counted as scheduled but never as rebuilt, so
        ``rebuilds == refreshes_scheduled`` can hold too early or never.
        With one client waiting after every fallback, the routed grain
        is the only one that can be rebuilding.
        """
        started = time.perf_counter()
        endpoint = self.stack.endpoint
        cube = endpoint.model.cube("sales")
        rollup = next(r for r in cube.rollups if r.name == route["rollup"])
        while endpoint.router.try_rows(cube, rollup, aggregate) is None:
            if time.perf_counter() - started > REFRESH_TIMEOUT_S:
                raise TimeoutError(f"rollup {rollup.name!r} was not rebuilt")
            time.sleep(0.002)
        return time.perf_counter() - started

    def _serving_counters(self) -> dict:
        """The service's and the rollup router's cumulative counters."""
        merged = {}
        if self.stack.service is not None:
            merged.update(self.stack.service.stats())
        if self.stack.endpoint is not None:
            merged.update(self.stack.endpoint.rollup_stats_payload()["counters"])
            merged.update(self.stack.endpoint.counters.snapshot())
        return merged

    # -- one pass -------------------------------------------------------------------

    def run_pass(self, oracle_pass: bool = False, spans=None) -> PassResult:
        """Replay the op list once.  ``oracle_pass`` folds every read's
        answer against the fact rows (and applies the writes to the
        oracle's copy); other passes compare digests.  ``spans`` is the
        recorder of a traced pass."""
        if self.workload in ("scan_cold", "select_cold"):
            read = self._cold_read
        elif self.workload == "serve_rw":
            read = self._service_read
        else:
            read = self._http_read
        clock = time.perf_counter
        n = len(self.ops)
        result = PassResult(
            latencies=[0.0] * n, first_latencies=[0.0] * n, tags=[""] * n
        )
        counts = dict.fromkeys(STAT_KEYS, 0.0)
        counts.update(response_bytes=0.0, sim_io_s=0.0, wal_bytes=0.0, wal_fsyncs=0.0)
        wal = self.stack.engine.db.wal
        serving_before = self._serving_counters()
        first_start = last_end = None

        def issue(call, slot):
            """One timed call; a raised exception is a failed op."""
            self.attempted += 1
            root = spans.begin("driver:op", root=True) if spans is not None else None
            started = clock()
            try:
                tag, answer, stats = call(slot)
            except Exception as exc:  # noqa: BLE001 — a failed op, counted
                result.failures.append(f"slot {slot}: {type(exc).__name__}: {exc}")
                tag, answer, stats = "failed", None, None
            ended = clock()
            if root is not None:
                spans.end(root)
            return tag, answer, stats, started, ended

        for slot, op in enumerate(self.ops):
            call = read if op["kind"] == "read" else self._write
            if op["kind"] == "write":
                wal_before = (wal.size_bytes(), wal.counters.get("wal_fsyncs"))
            tag, answer, stats, started, ended = issue(call, slot)
            latency = result.first_latencies[slot] = ended - started
            if tag in CHEAP_TAGS and spans is None:
                # a sub-millisecond op is mostly thread hand-offs, whose
                # cost swings with the host; ask again (it is idempotent)
                # and keep the fastest
                for _ in range(CHEAP_REPEATS - 1):
                    again, _, _, restarted, ended = issue(call, slot)
                    if again != tag:
                        result.failures.append(
                            f"slot {slot}: {tag} became {again} when repeated"
                        )
                    latency = min(latency, ended - restarted)
            if first_start is None:
                first_start = started
            last_end = ended
            result.latencies[slot] = latency
            result.tags[slot] = tag
            if op["kind"] == "write" and tag != "failed":
                keys = tuple(op["keys"])
                self.acknowledged[keys] = op["value"]
                if oracle_pass:
                    self.stack.cells.write(keys, op["value"])
                    self._data_version += 1
                counts["wal_bytes"] += wal.size_bytes() - wal_before[0]
                counts["wal_fsyncs"] += (
                    wal.counters.get("wal_fsyncs") - wal_before[1]
                )
            elif tag != "failed":
                problem = self._check(slot, answer, oracle_pass)
                if problem is not None:
                    result.failures.append(problem)
                for key in stats or ():
                    if key in counts:
                        counts[key] += stats[key]
                if tag == "base" and not op["tail"]:
                    # a coverable request fell back: its grain is being
                    # rebuilt in the background; let that finish untimed
                    # so the next slot's route does not depend on a race
                    result.refresh_wait_s += self._settle_refreshes(
                        answer["route"], op["aggregate"]
                    )
            if spans is None:
                # the host's speed right now (nothing else is running:
                # any refresh has settled)
                result.kernel_s.append(calibration.sample())
        result.wall_s = last_end - first_start - result.refresh_wait_s
        if self.tags is None:
            self.tags = result.tags
        elif result.tags != self.tags:
            moved = [i for i, (a, b) in enumerate(zip(self.tags, result.tags)) if a != b]
            result.failures.append(
                f"{len(moved)} slots changed outcome, first slot {moved[0]}: "
                f"{self.tags[moved[0]]} -> {result.tags[moved[0]]}"
            )
        for key, value in self._serving_counters().items():
            counts[key] = value - serving_before.get(key, 0.0)
        result.counts = counts
        if oracle_pass:
            self._folds.clear()
        return result
