"""``repro trace-smoke``: the end-to-end distributed-tracing gate.

Two halves, one verdict:

1. **Shard decomposition** — run one consolidation scattered over
   ``shards`` chunk-range shards on the ``process`` executor with the
   slow-query threshold at zero, pull the query's trace out of the
   flight recorder over live HTTP (``/trace/id/<trace_id>``), validate
   it against ``benchmarks/schemas/trace.schema.json``, and assert the
   span tree is *contiguous* (every ``shard_scan_<i>`` span carries the
   re-parented ``shard_worker`` subtree its worker process shipped
   back) and *additive* (the scatter span's counter deltas equal the
   sum of its shard children's, which equal the worker roots' shipped
   deltas key for key).

2. **Async causality** — drive the slicer API over loopback HTTP with
   the structured access log on, force a stale-grain fallback by
   evicting the grain, and assert the response's ``X-Trace-Id`` resolves on
   ``/trace/id/<trace_id>`` to a record whose ``schedules`` link points
   at a resident rollup-rebuild trace carrying the reverse
   ``follows_from`` link.

``failures`` in the returned payload is empty on success; the CLI (and
CI's trace-smoke job) exits non-zero otherwise.
"""

from __future__ import annotations

import io
import json
import tempfile
import time
import urllib.error
import urllib.request

from repro.bench.harness import bench_settings, build_cube_engine, query2_for
from repro.data.datasets import dataset1

#: counter keys the decomposition check sums across the span tree
#: (chunk-read accounting is the paper's cost model, so these must
#: survive the process hop exactly)
DECOMPOSE_KEYS = ("chunks_read", "cells_scanned")

TRACE_SCHEMA_PATH = "benchmarks/schemas/trace.schema.json"


def _http_json(url: str, timeout_s: float = 10.0) -> dict:
    with urllib.request.urlopen(url, timeout=timeout_s) as response:
        return json.loads(response.read())


def _find_span(node: dict, name: str) -> dict | None:
    if node.get("name") == name:
        return node
    for child in node.get("children", ()):
        found = _find_span(child, name)
        if found is not None:
            return found
    return None


def _find_all(node: dict, prefix: str, out: list[dict]) -> list[dict]:
    if str(node.get("name", "")).startswith(prefix):
        out.append(node)
    for child in node.get("children", ()):
        _find_all(child, prefix, out)
    return out


def _check_decomposition(trace: dict, failures: list[str]) -> dict:
    """The contiguity + additivity assertions over one fetched trace."""
    scatter = None
    for root in trace.get("roots", ()):
        scatter = _find_span(root, "shard_scatter")
        if scatter is not None:
            break
    summary: dict = {"scatter_found": scatter is not None}
    if scatter is None:
        failures.append("no shard_scatter span in the sharded query trace")
        return summary
    scans = [
        child
        for child in scatter.get("children", ())
        if str(child.get("name", "")).startswith("shard_scan_")
    ]
    summary["shard_scans"] = len(scans)
    if not scans:
        failures.append("shard_scatter span has no shard_scan children")
        return summary
    workers = _find_all(scatter, "shard_worker", [])
    summary["worker_spans"] = len(workers)
    if len(workers) < len(scans):
        failures.append(
            f"only {len(workers)} shard_worker spans were re-parented "
            f"under {len(scans)} shard scans (tree not contiguous)"
        )
    for scan in scans:
        scan_workers = [
            c for c in scan.get("children", ())
            if str(c.get("name", "")).startswith("shard_worker")
        ]
        if not scan_workers:
            failures.append(
                f"{scan['name']} carries no shipped worker subtree"
            )
    summary["decomposition"] = {}
    for key in DECOMPOSE_KEYS:
        total = float(scatter.get("io", {}).get(key, 0.0))
        scan_sum = sum(
            float(scan.get("io", {}).get(key, 0.0)) for scan in scans
        )
        worker_sum = sum(
            float(worker.get("io", {}).get(key, 0.0)) for worker in workers
        )
        summary["decomposition"][key] = {
            "scatter": total,
            "scan_sum": scan_sum,
            "worker_sum": worker_sum,
        }
        if total <= 0:
            failures.append(f"scatter span recorded no {key}")
        if abs(total - scan_sum) > 1e-6:
            failures.append(
                f"{key}: scatter delta {total} != shard-scan sum {scan_sum}"
            )
        if abs(scan_sum - worker_sum) > 1e-6:
            failures.append(
                f"{key}: shard-scan sum {scan_sum} != shipped worker "
                f"delta sum {worker_sum}"
            )
    return summary


def run_trace_smoke(
    scale: str | None = None,
    shards: int = 4,
    executor: str = "process",
    timeout_s: float = 30.0,
) -> dict:
    """Run both halves of the smoke; returns the gate payload."""
    from repro.api.model import load_model
    from repro.api.replay import DEFAULT_MODEL_PATH
    from repro.api.server import ApiEndpoint, ApiServer
    from repro.obs.server import ObservabilityServer
    from repro.olap.options import ExecutionOptions
    from repro.serve import QueryService, ServiceConfig
    from repro.util.jsonschema_lite import validate

    settings = bench_settings(scale)
    config = dataset1(settings.scale)[1]  # the x100 cube
    with open(TRACE_SCHEMA_PATH, encoding="utf-8") as handle:
        schema = json.load(handle)
    failures: list[str] = []
    payload: dict = {
        "scale": settings.scale,
        "cube": config.name,
        "shards": shards,
        "executor": executor,
        "failures": failures,
    }

    with tempfile.TemporaryDirectory(prefix="repro-trace-smoke-") as wal_dir:
        engine = build_cube_engine(config, settings, wal_dir=wal_dir)
        service = QueryService(
            engine,
            ServiceConfig(
                max_workers=2,
                slowlog_threshold_s=0.0,  # capture every query's profile
                shards=shards,
                executor=executor,
            ),
        )
        obs = ObservabilityServer(engine.db.metrics, service=service)
        try:
            obs.start()
            # -- half 1: the sharded scatter's contiguous span tree ----
            service.execute(
                query2_for(config),
                ExecutionOptions(
                    backend="array", shards=shards, executor=executor
                ),
            )
            entries = service.slowlog.entries()
            if not entries:
                failures.append("slowlog captured nothing at threshold 0")
                trace_id = None
            else:
                trace_id = entries[-1].trace_id
                if not trace_id:
                    failures.append("slowlog entry carries no trace_id")
            payload["sharded_trace_id"] = trace_id
            if trace_id:
                trace = _http_json(f"{obs.url}/trace/id/{trace_id}")
                errors = validate(trace, schema)
                if errors:
                    failures.extend(
                        f"trace schema: {error}" for error in errors[:5]
                    )
                payload["sharded"] = _check_decomposition(trace, failures)

            # -- half 2: API request -> scheduled rollup rebuild -------
            model = load_model(DEFAULT_MODEL_PATH, scale=settings.scale)
            logical = model.cube("sales")
            access_lines = io.StringIO()
            endpoint = ApiEndpoint(engine, service, model)
            try:
                with ApiServer(
                    endpoint, access_log=True, access_log_stream=access_lines
                ) as api:
                    # a grain the model's declared rollups cover, so the
                    # router routes (and schedules builds) for it
                    aggregate_url = (
                        f"{api.url}/cube/{logical.name}/aggregate"
                        "?drilldown=dim0:h01,dim1:h11"
                    )
                    # burst: grains are built at start, these route
                    for _ in range(3):
                        _http_json(aggregate_url)
                        time.sleep(0.05)
                    # a write would patch the grain in place; evict it, so
                    # the next request is a fallback that schedules a rebuild
                    endpoint.router.reclaim_grains(0)
                    request = urllib.request.Request(aggregate_url)
                    with urllib.request.urlopen(
                        request, timeout=timeout_s
                    ) as response:
                        body = json.loads(response.read())
                        header_id = response.headers.get("X-Trace-Id")
                    payload["api_trace_id"] = header_id
                    if header_id is None:
                        failures.append("response carried no X-Trace-Id")
                    elif body.get("trace_id") != header_id:
                        failures.append(
                            f"body trace_id {body.get('trace_id')!r} != "
                            f"header {header_id!r}"
                        )
                    if header_id is not None:
                        api_trace = _wait_for_link(
                            obs.url, header_id, timeout_s, failures
                        )
                        if api_trace is not None:
                            errors = validate(api_trace, schema)
                            if errors:
                                failures.extend(
                                    f"api trace schema: {error}"
                                    for error in errors[:5]
                                )
                            payload["api"] = _check_causality(
                                obs.url, api_trace, schema, failures,
                                validate,
                            )
            finally:
                endpoint.close()
            payload["access_log"] = _check_access_log(
                access_lines.getvalue(), failures
            )
        finally:
            obs.stop()
            service.close()
    return payload


def _wait_for_link(
    obs_url: str, trace_id: str, timeout_s: float, failures: list[str]
) -> dict | None:
    """Poll the flight recorder until the request's trace carries its
    ``schedules`` link (attached when the trace record lands)."""
    deadline = time.monotonic() + timeout_s
    last: dict | None = None
    while time.monotonic() < deadline:
        try:
            last = _http_json(f"{obs_url}/trace/id/{trace_id}")
        except urllib.error.HTTPError:
            time.sleep(0.1)
            continue
        if any(
            link.get("kind") == "schedules"
            for link in last.get("links", ())
        ):
            return last
        time.sleep(0.1)
    if last is None:
        failures.append(
            f"trace {trace_id} never became resident on the endpoint"
        )
    else:
        failures.append(
            f"trace {trace_id} never grew a 'schedules' link "
            f"(links: {last.get('links')})"
        )
    return last


def _check_causality(
    obs_url: str, api_trace: dict, schema: dict, failures: list[str],
    validate,
) -> dict:
    """Follow the ``schedules`` link to the build and check the back-link."""
    scheduled = [
        link
        for link in api_trace.get("links", ())
        if link.get("kind") == "schedules"
    ]
    summary: dict = {"schedules_links": len(scheduled)}
    if not scheduled:
        return summary
    build_id = scheduled[0]["trace_id"]
    summary["build_trace_id"] = build_id
    # the record turns resident at schedule time but the follows_from
    # back-link lands only when the rebuild worker runs — poll for it
    deadline = time.monotonic() + 10.0
    build: dict | None = None
    while time.monotonic() < deadline:
        try:
            build = _http_json(f"{obs_url}/trace/id/{build_id}")
        except urllib.error.HTTPError:
            time.sleep(0.1)
            continue
        if any(
            link.get("kind") == "follows_from"
            for link in build.get("links", ())
        ):
            break
        time.sleep(0.1)
    if build is None:
        failures.append(
            f"scheduled build trace {build_id} never became resident"
        )
        return summary
    errors = validate(build, schema)
    if errors:
        failures.extend(f"build trace schema: {error}" for error in errors[:5])
    back = [
        link
        for link in build.get("links", ())
        if link.get("kind") == "follows_from"
        and link.get("trace_id") == api_trace["trace_id"]
    ]
    summary["follows_from_back_link"] = bool(back)
    if not back:
        failures.append(
            f"build trace {build_id} carries no follows_from link back "
            f"to {api_trace['trace_id']}"
        )
    summary["build_status"] = build.get("status")
    return summary


def _check_access_log(text: str, failures: list[str]) -> dict:
    """Every line must be one JSON object with the structured fields."""
    lines = [line for line in text.splitlines() if line.strip()]
    required = {"ts", "method", "path", "status", "latency_ms", "trace_id"}
    parsed = 0
    for line in lines:
        try:
            entry = json.loads(line)
        except ValueError:
            failures.append(f"access-log line is not JSON: {line[:80]!r}")
            continue
        missing = required - set(entry)
        if missing:
            failures.append(
                f"access-log line missing {sorted(missing)}: {line[:80]!r}"
            )
            continue
        parsed += 1
    if not lines:
        failures.append("access log captured no lines")
    return {"lines": len(lines), "parsed": parsed}


def write_trace_smoke_artifact(payload: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
