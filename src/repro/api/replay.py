"""``repro replay``: seeded HTTP traffic replay against the API stack.

The soak measures the service layer in-process; the replay measures the
*whole* stack — logical-model parsing, rollup routing, base fallback,
JSON shaping — over real loopback HTTP.  A seeded ``Random`` produces a
deterministic request schedule with the skew real dashboards have:

- ~60% hot coarse drilldowns drawn from a small template set (the
  rollup router should answer these from materialized grains),
- ~25% cut variants at mixed levels (mostly routable),
- ~15% deliberate base-cube fallbacks (key-grain drilldowns and
  ``avg``, which is never navigable from pre-aggregated cells),

with zero-think bursts, plus a churn writer that bumps the cube
generation every ``write_every`` requests so rollup invalidation and
asynchronous refresh happen *under* traffic (a request that catches a
grain stale is answered from base while the refresh worker rebuilds).  The run summarizes into a
``BENCH_api.json`` artifact: status-class counts (the gate demands zero
5xx), router hit rate, routed-vs-base latency quantiles, the ``api.*``
and ``rollup.*`` counter snapshots, and one EXPLAIN ANALYZE probe whose
plan must carry a ``rollup.route`` root with actuals bound.
"""

from __future__ import annotations

import json
import random
import tempfile
import threading
import time
import urllib.error
import urllib.request
from dataclasses import dataclass, field

#: weights for the hot / cut / fallback request classes
_MIX = (0.60, 0.25, 0.15)

#: one request in ``_BURST_EVERY`` starts a zero-think burst this long
_BURST_LENGTH = 4
_BURST_EVERY = 10

#: default logical model document (see ``benchmarks/api_model.json``)
DEFAULT_MODEL_PATH = "benchmarks/api_model.json"


@dataclass(frozen=True)
class ReplaySettings:
    """Knobs for one replay run (all randomness flows from ``seed``)."""

    scale: str | None = None
    requests: int = 200
    seed: int = 0
    clients: int = 4
    write_every: int = 40
    model_path: str = DEFAULT_MODEL_PATH
    cube: str = "sales"
    timeout_s: float = 30.0
    #: resident-set budget in bytes (0: accounting only, no eviction)
    memory_budget: int = 0
    #: memory trajectory sampling interval while clients run
    memory_sample_s: float = 0.25


@dataclass
class ReplayReport:
    """The replay outcome: the artifact payload plus its gate failures."""

    payload: dict
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        return self.payload


def _percentile(sorted_values: list[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1, int(q * len(sorted_values)))
    return sorted_values[index]


def _schedule(rng: random.Random, cube: str, n: int) -> list[dict]:
    """The deterministic request list: each entry carries ``kind``
    ("hot" / "cut" / "base"), ``method``, ``path`` and optional
    ``body`` — everything a client needs to issue it verbatim."""
    hot_templates = [
        {"method": "GET", "query": "drilldown=dim0"},
        {"method": "GET", "query": "drilldown=dim0:h01,dim1:h11"},
        {"method": "GET", "query": "drilldown=dim1,dim2"},
        {"method": "GET", "query": "drilldown=dim3:h31&aggregate=max"},
        {
            "method": "POST",
            "body": {"drilldown": ["dim0:h01", "dim1"]},
        },
    ]
    cut_templates = [
        {
            "method": "GET",
            "query": "drilldown=dim0:h01&cut=dim1.h11:AA1;AA2",
        },
        {
            "method": "GET",
            "query": "drilldown=dim2&cut=dim3.h32:BB0..BB2",
        },
        {
            "method": "POST",
            "body": {
                "drilldown": ["dim1:h11"],
                "cut": [
                    {
                        "dimension": "dim0",
                        "level": "h02",
                        "values": ["BB0", "BB1"],
                    }
                ],
                "aggregate": "min",
            },
        },
        {
            "method": "GET",
            "query": "drilldown=dim0,dim3&cut=dim0.h01:AA3",
        },
    ]
    def base_template(brng: random.Random) -> dict:
        # the long tail: key-grain drilldowns and ``avg`` with
        # rng-drawn predicates, so (unlike the hot set) these rarely
        # repeat and mostly miss the service's result cache — the
        # honest cost of not having a covering rollup
        pick = brng.randrange(3)
        if pick == 0:
            low = brng.randrange(0, 80)
            high = low + brng.randrange(5, 20)
            return {
                "method": "GET",
                "query": f"drilldown=dim3:d3&cut=dim3.d3:{low}..{high}",
            }
        if pick == 1:
            member = brng.randrange(5)
            return {
                "method": "GET",
                "query": f"drilldown=dim0:d0&cut=dim1.h11:AA{member}",
            }
        low = brng.randrange(0, 50)
        return {
            "method": "GET",
            "query": (
                f"drilldown=dim0&aggregate=avg&cut=dim3.d3:{low}..{low + 25}"
            ),
        }

    schedule = []
    for _ in range(n):
        pick = rng.random()
        if pick < _MIX[0]:
            kind = "hot"
            # hot traffic is zipf-ish: the first template dominates
            if rng.random() < 0.5:
                template = hot_templates[0]
            else:
                template = rng.choice(hot_templates)
        elif pick < _MIX[0] + _MIX[1]:
            kind = "cut"
            template = rng.choice(cut_templates)
        else:
            kind = "base"
            template = base_template(rng)
        entry = {
            "kind": kind,
            "method": template["method"],
            "path": f"/cube/{cube}/aggregate",
        }
        if template["method"] == "GET":
            entry["path"] += "?" + template["query"]
        else:
            entry["body"] = template["body"]
        schedule.append(entry)
    return schedule


def _issue(
    base_url: str, entry: dict, timeout_s: float
) -> tuple[int, dict, str | None]:
    """One HTTP request; returns ``(status, parsed body, trace_id)``
    — the ``X-Trace-Id`` response header — and never raises for HTTP
    error statuses (they are workload data)."""
    url = base_url + entry["path"]
    if entry["method"] == "GET":
        request = urllib.request.Request(url)
    else:
        request = urllib.request.Request(
            url,
            data=json.dumps(entry["body"]).encode("utf-8"),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
    try:
        with urllib.request.urlopen(request, timeout=timeout_s) as response:
            return (
                response.status,
                json.loads(response.read()),
                response.headers.get("X-Trace-Id"),
            )
    except urllib.error.HTTPError as exc:
        try:
            body = json.loads(exc.read())
        except ValueError:
            body = {}
        return exc.code, body, exc.headers.get("X-Trace-Id")


def run_replay(settings: ReplaySettings | None = None) -> ReplayReport:
    """Build the stack, serve it over loopback HTTP, replay the seeded
    schedule, and gate the outcome.  See the module docstring."""
    from repro.api.model import load_model
    from repro.api.server import ApiEndpoint, ApiServer
    from repro.bench.harness import bench_settings, build_cube_engine
    from repro.data.datasets import dataset1
    from repro.data.generator import generate_fact_rows
    from repro.serve import QueryService, ServiceConfig

    settings = settings or ReplaySettings()
    bench = bench_settings(settings.scale)
    config = dataset1(bench.scale)[1]  # the x100 cube
    model = load_model(settings.model_path, scale=bench.scale)
    logical = model.cube(settings.cube)  # fail fast on a bad model/cube
    rng = random.Random(settings.seed)
    schedule = _schedule(rng, settings.cube, settings.requests)
    client_rngs = [
        random.Random(rng.randrange(2**31))
        for _ in range(settings.clients)
    ]
    failures: list[str] = []
    #: (kind, status, latency_s, route_source)
    events: list[tuple[str, int, float, str | None]] = []
    events_lock = threading.Lock()
    issued_count = [0]  # shared request counter driving the churn writer
    sample_response: dict | None = None
    sample_trace_id: str | None = None
    traced = [0]  # responses carrying an X-Trace-Id header
    trace_mismatches = [0]  # header disagreeing with the body field
    writes = [0]

    with tempfile.TemporaryDirectory(prefix="repro-replay-") as wal_dir:
        engine = build_cube_engine(config, bench, wal_dir=wal_dir)
        write_row = next(iter(generate_fact_rows(config)))
        write_keys = tuple(write_row[: config.ndim])
        write_measures = tuple(write_row[config.ndim :])
        service = QueryService(
            engine,
            ServiceConfig(
                max_workers=settings.clients,
                max_in_flight=8 * settings.clients,
                memory_budget_bytes=settings.memory_budget,
            ),
        )
        endpoint = ApiEndpoint(engine, service, model)
        memory_track: list[dict] = []
        memory_lock = threading.Lock()
        stop_mem = threading.Event()
        run_started = time.monotonic()

        def sample_memory() -> None:
            # enforce-then-read: each point proves the budget held then
            snap = service.memory.sample("replay")
            point = {
                "t_s": round(time.monotonic() - run_started, 3),
                **snap,
            }
            with memory_lock:
                memory_track.append(point)

        def memory_sampler() -> None:
            while not stop_mem.wait(settings.memory_sample_s):
                sample_memory()
        try:
            with ApiServer(endpoint) as server:
                base_url = server.url

                def client(index: int) -> None:
                    nonlocal sample_response, sample_trace_id
                    crng = client_rngs[index]
                    pause = threading.Event()
                    burst_left = 0
                    # round-robin partition keeps the schedule
                    # deterministic regardless of thread interleaving
                    for position in range(
                        index, len(schedule), settings.clients
                    ):
                        entry = schedule[position]
                        started = time.perf_counter()
                        status, body, trace_id = _issue(
                            base_url, entry, settings.timeout_s
                        )
                        latency = time.perf_counter() - started
                        source = (body.get("route") or {}).get("source")
                        with events_lock:
                            events.append(
                                (entry["kind"], status, latency, source)
                            )
                            issued_count[0] += 1
                            total = issued_count[0]
                            if trace_id is not None:
                                traced[0] += 1
                                if body.get("trace_id") not in (
                                    None, trace_id
                                ):
                                    trace_mismatches[0] += 1
                            if (
                                sample_response is None
                                and status == 200
                                and source == "rollup"
                            ):
                                sample_response = body
                                sample_trace_id = trace_id
                        if (
                            settings.write_every
                            and total % settings.write_every == 0
                        ):
                            # churn: bump the generation under traffic so
                            # rollups go stale and lazily rebuild
                            service.write_cell(
                                config.name, write_keys, write_measures
                            )
                            with events_lock:
                                writes[0] += 1
                        if burst_left > 0:
                            burst_left -= 1
                            continue
                        if crng.randrange(_BURST_EVERY) == 0:
                            burst_left = _BURST_LENGTH
                            continue
                        pause.wait(crng.uniform(0.0, 0.005))

                threads = [
                    threading.Thread(
                        target=client, args=(i,), name=f"replay-client-{i}"
                    )
                    for i in range(settings.clients)
                ]
                mem_thread = threading.Thread(
                    target=memory_sampler,
                    name="repro-obs-replay-mem",
                    daemon=True,
                )
                for thread in threads:
                    thread.start()
                mem_thread.start()
                for thread in threads:
                    thread.join()
                stop_mem.set()
                mem_thread.join(timeout=5)
                sample_memory()  # drained end-state closes the trajectory

                # the EXPLAIN ANALYZE probe: the hottest routable
                # template must show a rollup.route root with actuals
                probe_entry = {
                    "kind": "probe",
                    "method": "GET",
                    "path": (
                        f"/cube/{settings.cube}/aggregate"
                        "?drilldown=dim0&explain=1&analyze=1"
                    ),
                }
                probe_status, probe_body, _probe_trace = _issue(
                    base_url, probe_entry, settings.timeout_s
                )
            payload = _summarize(
                endpoint, logical, bench, settings, events, writes[0],
                sample_response, probe_status, probe_body, failures,
                trace_stats={
                    "responses_with_header": traced[0],
                    "header_body_mismatches": trace_mismatches[0],
                    "sample_trace_id": sample_trace_id,
                },
                memory_track=memory_track,
                memory_counters=service.memory.counters.snapshot(),
            )
        finally:
            stop_mem.set()
            endpoint.close()
            service.close()
    return ReplayReport(payload=payload, failures=failures)


def _summarize(
    endpoint, logical, bench, settings, events, writes,
    sample_response, probe_status, probe_body, failures,
    trace_stats=None, memory_track=None, memory_counters=None,
) -> dict:
    statuses = {"2xx": 0, "4xx": 0, "5xx": 0, "other": 0}
    latencies: dict[str, list[float]] = {"all": [], "rollup": [], "base": []}
    hits = misses = 0
    for _, status, latency, source in events:
        bucket = f"{status // 100}xx"
        if bucket in statuses:
            statuses[bucket] += 1
        else:
            statuses["other"] += 1
        latencies["all"].append(latency)
        if source == "rollup":
            hits += 1
            latencies["rollup"].append(latency)
        elif source == "base":
            misses += 1
            latencies["base"].append(latency)

    def quantiles(values: list[float]) -> dict:
        ordered = sorted(values)
        return {
            "count": len(ordered),
            "p50_s": _percentile(ordered, 0.50),
            "p95_s": _percentile(ordered, 0.95),
            "p99_s": _percentile(ordered, 0.99),
        }

    answered = hits + misses
    hit_rate = hits / answered if answered else 0.0
    explain = probe_body.get("explain") or {}
    plan_root = explain.get("plan") or {}
    probe = {
        "status": probe_status,
        "backend": explain.get("backend"),
        "analyzed": explain.get("analyzed"),
        "root_op": plan_root.get("op"),
        "rollup": (plan_root.get("detail") or {}).get("rollup"),
        "grain": (plan_root.get("detail") or {}).get("grain"),
        "worst_misestimate": explain.get("worst_misestimate"),
        "plan": explain or None,
    }
    payload = {
        "scale": bench.scale,
        "cube": logical.name,
        "physical_cube": logical.cube,
        "requests": len(events),
        "seed": settings.seed,
        "clients": settings.clients,
        "write_every": settings.write_every,
        "writes": writes,
        "statuses": statuses,
        "trace": dict(trace_stats or {}),
        "rollup": {
            "hits": hits,
            "base_fallbacks": misses,
            "hit_rate": hit_rate,
            "resident": endpoint.router.resident_rollups(),
            "resident_rows": endpoint.router.resident_rows(),
            "grains": endpoint.router.grain_rows(),
            "counters": {
                name: value
                for name, value in sorted(
                    endpoint.router.counters.snapshot().items()
                )
            },
        },
        "latency": {
            "all": quantiles(latencies["all"]),
            "routed": quantiles(latencies["rollup"]),
            "base": quantiles(latencies["base"]),
        },
        "api_counters": {
            name: value
            for name, value in sorted(endpoint.counters.snapshot().items())
        },
        "sample_response": sample_response,
        "explain_probe": probe,
        "memory": {
            "budget_bytes": int(settings.memory_budget),
            "high_water_bytes": max(
                (
                    int(s["total_resident_bytes"])
                    for s in (memory_track or [])
                ),
                default=0,
            ),
            "pressure_events": (memory_counters or {}).get(
                "memory.pressure_events", 0.0
            ),
            "reclaimed_bytes": (memory_counters or {}).get(
                "memory.reclaimed_bytes", 0.0
            ),
            "samples": list(memory_track or []),
        },
        "failures": failures,
    }
    _gate(payload, failures)
    return payload


def _gate(payload: dict, failures: list[str]) -> None:
    """The replay's acceptance checks; appends into ``failures``."""
    if not payload["requests"]:
        failures.append("replay issued no requests")
    if payload["statuses"].get("5xx"):
        failures.append(
            f"{payload['statuses']['5xx']} responses were 5xx (gate: zero)"
        )
    rollup = payload["rollup"]
    if rollup["hits"] + rollup["base_fallbacks"] and rollup["hit_rate"] <= 0.8:
        failures.append(
            f"rollup hit rate {rollup['hit_rate']:.0%} at or below the "
            "80% floor for the skewed mix"
        )
    routed = payload["latency"]["routed"]
    base = payload["latency"]["base"]
    if (
        routed["count"] >= 10
        and base["count"] >= 3
        and routed["p95_s"] >= base["p95_s"]
    ):
        failures.append(
            f"routed p95 {routed['p95_s'] * 1000:.3f}ms did not beat "
            f"base-fallback p95 {base['p95_s'] * 1000:.3f}ms"
        )
    probe = payload["explain_probe"]
    if probe["status"] != 200:
        failures.append(f"explain probe returned {probe['status']}")
    elif probe["root_op"] != "rollup.route":
        failures.append(
            f"explain probe root op {probe['root_op']!r} != 'rollup.route'"
        )
    elif not probe["analyzed"]:
        failures.append("explain probe plan was not analyzed")
    else:
        negative = _negative_actuals(probe["plan"])
        if negative:
            failures.append(
                f"explain probe measured negative work: {negative} "
                "(counters only count up; gate: none)"
            )
    if payload["writes"] == 0 and payload["write_every"]:
        failures.append("churn writer never ran")
    trace = payload.get("trace") or {}
    if trace and trace.get("responses_with_header", 0) < payload["requests"]:
        failures.append(
            f"only {trace.get('responses_with_header', 0)} of "
            f"{payload['requests']} responses carried X-Trace-Id"
        )
    if trace.get("header_body_mismatches"):
        failures.append(
            f"{trace['header_body_mismatches']} responses' X-Trace-Id "
            "disagreed with the body's trace_id"
        )
    memory = payload.get("memory")
    if memory and memory["budget_bytes"] > 0:
        over = [
            s
            for s in memory["samples"]
            if s["total_resident_bytes"] > memory["budget_bytes"]
        ]
        if over:
            worst = max(s["total_resident_bytes"] for s in over)
            failures.append(
                f"memory trajectory exceeded the "
                f"{memory['budget_bytes']}-byte budget in {len(over)} of "
                f"{len(memory['samples'])} samples (high water {worst})"
            )
        if not memory["samples"]:
            failures.append(
                "memory budget set but no trajectory sample recorded"
            )


def _negative_actuals(explain: dict) -> dict[str, float]:
    """Every negative actual or total in an analyzed plan payload."""
    measured = [("totals", explain["execution"]["totals"])]
    nodes = [explain["plan"]]
    while nodes:
        node = nodes.pop()
        measured.append((node["op"], node.get("actuals", {})))
        nodes.extend(node.get("children", ()))
    return {
        f"{where}.{name}": value
        for where, counters in measured
        for name, value in counters.items()
        if value < 0
    }


def write_replay_artifact(payload: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
