"""Command-line interface: ``python -m repro <command>``.

Commands:

- ``info`` — version, available scales and experiment ids.
- ``demo`` — build a synthetic cube and run the paper's Query 1/2/3
  through the engine's backends and the harness's baselines, printing a
  cost table (``--json`` for a machine-readable report).
- ``trace`` — run one query cold with the span tracer on and print the
  nested phase tree with per-phase I/O counter deltas; with ``--id`` and
  ``--url``, fetch one recorded distributed trace from a running
  endpoint's ``/trace/id/<trace_id>`` route instead (the id a response's
  ``X-Trace-Id`` header, a ``/traces`` entry, or a histogram exemplar named).
- ``explain`` — EXPLAIN / EXPLAIN ANALYZE one of the paper's queries:
  the backend's plan tree with per-node cost estimates, and with
  ``--analyze`` the measured actuals and misestimate factors; ``--json``
  for the machine shape, ``--validate SCHEMA`` to check it against the
  checked-in schema (the CI explain-smoke does).
- ``sql`` — run one SQL-subset statement against a synthetic cube.
- ``storage`` — print the storage report for a synthetic cube.
- ``bench`` — run one experiment's benchmark module via pytest.
- ``serve`` — drive a concurrent mixed workload through the
  `QueryService` and print cache-hit rate and p50/p95/p99 latency;
  ``--metrics-port`` serves the introspection routes (``/metrics``,
  ``/healthz``, ``/traces``, …; ``GET /`` lists them) while the
  workload runs and for ``--linger`` seconds after.
- ``api-serve`` — standalone slicer-style HTTP query API
  (``/cube/<name>/aggregate`` drilldown/cut requests) over a synthetic
  cube, the introspection routes on the same port.
- ``mem`` — the resident-set breakdown by store, from a local workload
  or a running endpoint (``--url``).
- ``faultcheck`` — the crash-recovery property over every registered
  crash point.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import subprocess
import sys
import urllib.error
import urllib.request

from repro import __version__
from repro.bench.harness import (
    bench_settings,
    build_cube_engine,
    query1_for,
    query2_for,
    query3_for,
    run_cold,
    run_cold_traced,
    run_concurrent,
    run_warm,
)
from repro.data.datasets import SCALES, dataset1
from repro.errors import ReproError
from repro.olap.options import ExecutionOptions
from repro.obs.exporters import (
    prometheus_text,
    render_span_tree,
    trace_to_json,
)


def fetch_metrics(url: str, timeout_s: float = 5.0) -> str:
    """GET one endpoint route; returns the body as text."""
    with urllib.request.urlopen(url, timeout=timeout_s) as response:
        return response.read().decode("utf-8")


def fetch_json(url: str, timeout_s: float = 5.0) -> dict | None:
    """GET one JSON payload; ``None`` on a 404 (nothing by that name)."""
    try:
        return json.loads(fetch_metrics(url, timeout_s))
    except urllib.error.HTTPError as exc:
        if exc.code == 404:
            return None
        raise


def _fmt_bytes(n: float) -> str:
    for unit in ("B", "KiB", "MiB", "GiB"):
        if abs(n) < 1024.0 or unit == "GiB":
            return f"{n:7.1f}{unit}" if unit != "B" else f"{n:7.0f}B"
        n /= 1024.0
    return f"{n:7.1f}GiB"  # pragma: no cover - loop always returns


EXPERIMENTS = (
    "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10",
    "storage_sizes", "storage_crossover", "storage_snowflake", "load_costs",
    "ablation_compression", "ablation_chunk_count", "ablation_leftdeep",
    "ablation_fact_file", "ablation_chunk_order", "ablation_modes",
    "ablation_cube", "ablation_select_baselines",
)


def _add_scale_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--scale",
        choices=SCALES,
        default=None,
        help="workload scale (default: $REPRO_SCALE or medium)",
    )


def cmd_info(args) -> int:
    print(f"repro {__version__} — ICDE 1998 OLAP Array ADT reproduction")
    print(f"scales: {', '.join(SCALES)}")
    print(f"experiments: {', '.join(EXPERIMENTS)}")
    return 0


def cmd_demo(args) -> int:
    settings = bench_settings(args.scale)
    config = dataset1(settings.scale)[1]  # the x100 cube
    as_json = getattr(args, "json", False)
    if not as_json:
        print(
            f"building {config.name}: dims={config.dim_sizes} "
            f"valid={config.n_valid} ({config.density:.1%} dense) ..."
        )
    engine = build_cube_engine(config, settings, fact_btrees=True)
    plans = [
        ("Query 1 (consolidation)", query1_for(config), ("array", "starjoin", "leftdeep")),
        ("Query 2 (4-dim selection)", query2_for(config), ("array", "bitmap", "btree")),
        ("Query 3 (3-dim selection)", query3_for(config), ("array", "bitmap")),
    ]
    report = {
        "scale": settings.scale,
        "cube": config.name,
        "dim_sizes": list(config.dim_sizes),
        "n_valid": config.n_valid,
        "queries": [],
    }
    for title, query, backends in plans:
        if not as_json:
            print(f"\n{title}:")
        entry = {"title": title, "backends": [], "planner_pick": None}
        for backend in backends:
            result = run_cold(engine, query, backend)
            if as_json:
                entry["backends"].append(
                    {
                        "backend": backend,
                        "cost_s": result.cost_s,
                        "elapsed_s": result.elapsed_s,
                        "sim_io_s": result.sim_io_s,
                        "rows": len(result),
                        "stats": result.stats,
                    }
                )
            else:
                print(
                    f"    {backend:<9} cost={result.cost_s:7.3f}s "
                    f"(cpu {result.elapsed_s:.3f} + io {result.sim_io_s:.3f})  "
                    f"rows={len(result)}"
                )
        auto = engine.query(query, backend="auto")
        entry["planner_pick"] = auto.backend
        report["queries"].append(entry)
        if not as_json:
            print(f"    planner would pick: {auto.backend}")
    if as_json:
        print(json.dumps(report, indent=2))
    return 0


_TRACE_QUERIES = {"q1": query1_for, "q2": query2_for, "q3": query3_for}


def _cmd_trace_by_id(args) -> int:
    """Fetch one stored trace from a running endpoint."""
    from repro.obs.exporters import span_from_dict

    if not args.url:
        print("trace --id needs --url <running endpoint>", file=sys.stderr)
        return 2
    trace_id = args.id.strip().lower()
    url = f"{args.url.rstrip('/')}/trace/id/{trace_id}"
    payload = fetch_json(url)
    if payload is None:
        print(f"trace {trace_id}: HTTP 404 from {url}", file=sys.stderr)
        return 1
    print(
        f"trace {payload['trace_id']} [{payload['status']}] "
        f"{payload['name']} origin={payload['origin']} "
        f"latency={payload['latency_s'] * 1000:.3f}ms "
        f"spans={payload['spans']}"
    )
    for root in payload.get("roots", ()):
        print(render_span_tree(span_from_dict(root)))
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
        print(f"-- trace written to {args.json}")
    return 0


def cmd_trace(args) -> int:
    if args.id:
        return _cmd_trace_by_id(args)
    if args.query is None:
        print(
            "trace: give a query (q1/q2/q3) to run locally, or "
            "--id <trace_id> --url <endpoint> to fetch a stored trace",
            file=sys.stderr,
        )
        return 2
    settings = bench_settings(args.scale)
    config = dataset1(settings.scale)[1]  # the x100 cube
    query = _TRACE_QUERIES[args.query](config)
    engine = build_cube_engine(config, settings, fact_btrees=True)
    result, root = run_cold_traced(engine, query, args.backend)
    print(render_span_tree(root))
    print(
        f"-- backend={result.backend} cost={result.cost_s:.3f}s "
        f"(cpu {result.elapsed_s:.3f} + io {result.sim_io_s:.3f}) "
        f"rows={len(result)}"
    )
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            handle.write(trace_to_json([root]))
            handle.write("\n")
        print(f"-- trace written to {args.json}")
    if args.prom:
        with open(args.prom, "w", encoding="utf-8") as handle:
            handle.write(prometheus_text(engine.db.metrics))
        print(f"-- metrics written to {args.prom}")
    return 0


def cmd_explain(args) -> int:
    from repro.obs.explain import render_plan

    settings = bench_settings(args.scale)
    config = dataset1(settings.scale)[1]  # the x100 cube
    query = _TRACE_QUERIES[args.query](config)
    engine = build_cube_engine(config, settings)
    plan = engine.explain(
        query,
        ExecutionOptions(
            backend=args.backend,
            order=args.order,
            shards=args.shards,
            executor=args.executor,
        ),
        analyze=args.analyze,
    )
    payload = plan.to_dict()
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print(render_plan(plan))
    if args.validate:
        from repro.util.jsonschema_lite import SchemaError, validate

        with open(args.validate, encoding="utf-8") as handle:
            schema = json.load(handle)
        try:
            validate(payload, schema)
        except SchemaError as exc:
            print(f"FAIL: schema validation: {exc}", file=sys.stderr)
            return 1
        print(f"-- payload validates against {args.validate}", file=sys.stderr)
    return 0


def cmd_sql(args) -> int:
    settings = bench_settings(args.scale)
    config = dataset1(settings.scale)[1]
    engine = build_cube_engine(config, settings)
    result = engine.sql(config.name, args.statement, backend=args.backend)
    for row in result.rows[: args.limit]:
        print("\t".join(str(v) for v in row))
    if len(result.rows) > args.limit:
        print(f"... ({len(result.rows)} rows total)")
    print(
        f"-- backend={result.backend} cost={result.cost_s:.3f}s",
        file=sys.stderr,
    )
    return 0


def cmd_storage(args) -> int:
    settings = bench_settings(args.scale)
    for config in dataset1(settings.scale):
        engine = build_cube_engine(config, settings, fact_btrees=True)
        report = engine.storage_report(config.name)
        print(f"{config.name} (density {config.density:.1%}):")
        for name, value in sorted(report.items()):
            print(f"    {name:<18} {value:>12,} B")
    return 0


@contextlib.contextmanager
def _serving(engine, model, port: int, **config):
    """``(service, server)``: one service behind the one HTTP server
    (query API + introspection routes), both closed on exit."""
    from repro.api.server import ApiEndpoint, ApiServer
    from repro.serve import QueryService, ServiceConfig

    with QueryService(engine, ServiceConfig(**config)) as service:
        with contextlib.closing(ApiEndpoint(engine, service, model)) as endpoint:
            with ApiServer(endpoint, port=port) as server:
                yield service, server


def cmd_serve(args) -> int:
    import tempfile
    import time

    from repro.api.model import LogicalModel

    settings = bench_settings(args.scale)
    config = dataset1(settings.scale)[1]  # the x100 cube
    print(
        f"building {config.name}: dims={config.dim_sizes} "
        f"valid={config.n_valid} ..."
    )
    queries = [query1_for(config), query2_for(config), query3_for(config)]
    with tempfile.TemporaryDirectory(prefix="repro-serve-") as wal_dir:
        engine = build_cube_engine(config, settings, wal_dir=wal_dir)

        # run_warm owns a private single-worker service; it must finish
        # (and unregister its serve:* sources) before the shared service
        # below registers the same names.
        warm = run_warm(engine, queries[0], backend="array")
        print(
            f"warm q1: cold={warm.cold.cost_s:.3f}s "
            f"warm(p50)={warm.warm_cost_s * 1000:.3f}ms "
            f"hit-rate={warm.hit_rate:.0%} speedup={warm.speedup:,.0f}x"
        )

        if args.metrics_port is None:
            scope = contextlib.nullcontext((None, None))
        else:
            scope = _serving(
                engine,
                LogicalModel(cubes=()),
                args.metrics_port,
                max_workers=args.threads,
                max_in_flight=2 * args.threads * len(queries),
                slow_threshold_s=args.slow_threshold,
            )
        with scope as (service, server):
            if server is not None:
                print(f"serving {server.url} (see / for the routes)")
            report = run_concurrent(
                engine,
                queries,
                n_threads=args.threads,
                rounds=args.rounds,
                service=service,
            )
            print(
                f"concurrent ({report.n_threads} threads, {args.rounds} rounds, "
                f"{len(report.latencies_s)} queries): "
                f"hit-rate={report.hit_rate:.0%} "
                f"p50={report.p50_s * 1000:.3f}ms "
                f"p95={report.p95_s * 1000:.3f}ms "
                f"p99={report.p99_s * 1000:.3f}ms"
            )
            for name in sorted(report.stats):
                if name.startswith(("result_cache", "chunk_cache", "serve")):
                    print(f"    {name:<32} {report.stats[name]:>10,.0f}")
            if service is not None:
                print(
                    "slow queries: "
                    f"{service.counters.get('serve.slow_queries'):.0f} "
                    f"(threshold {args.slow_threshold * 1000:.0f}ms)"
                )
            if server is not None and args.linger > 0:
                print(f"lingering {args.linger:.0f}s for scrapes ...")
                time.sleep(args.linger)
    return 0


def _print_memory_payload(payload: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(payload, indent=2))
        return
    total = payload["total_resident_bytes"]
    budget = payload["budget_bytes"]
    budget_note = (
        f"budget {_fmt_bytes(float(budget)).strip()}"
        if budget
        else "unbounded"
    )
    print(
        f"resident total {_fmt_bytes(float(total)).strip()} ({budget_note})"
    )
    stores = payload["stores"]
    for name in sorted(stores, key=lambda n: stores[n], reverse=True):
        share = stores[name] / total if total else 0.0
        print(
            f"  {name:<16} {_fmt_bytes(float(stores[name]))}  {share:6.1%}"
        )
    if payload["top_entries"]:
        print("largest entries:")
        for entry in payload["top_entries"]:
            print(
                f"  {entry['store']:<16} "
                f"{_fmt_bytes(float(entry['bytes']))}  {entry['key']}"
            )
    counters = payload.get("counters", {})
    events = counters.get("memory.pressure_events", 0)
    if events:
        print(
            f"pressure: {events:.0f} events, "
            f"{_fmt_bytes(counters.get('memory.reclaimed_bytes', 0.0)).strip()}"
            " reclaimed"
        )


def cmd_mem(args) -> int:
    if args.url:
        url = f"{args.url.rstrip('/')}/memory?top={args.top}"
        payload = fetch_json(url)
        if payload is None:
            print(f"mem: HTTP 404 from {url}", file=sys.stderr)
            return 1
        _print_memory_payload(payload, args.json)
        return 0

    import tempfile

    from repro.serve import QueryService, ServiceConfig

    settings = bench_settings(args.scale)
    config = dataset1(settings.scale)[1]  # the x100 cube
    queries = [query1_for(config), query2_for(config), query3_for(config)]
    # a file-backed WAL so the fsync/commit histograms carry real
    # observations; every query counts as slow, so each miss leaves its
    # analyzed plan and the plan cache shows in the breakdown
    with tempfile.TemporaryDirectory(prefix="repro-mem-") as wal_dir:
        engine = build_cube_engine(config, settings, wal_dir=wal_dir)
        with QueryService(
            engine,
            ServiceConfig(
                max_workers=args.threads,
                max_in_flight=4 * args.threads * len(queries),
                slow_threshold_s=0.0,
            ),
        ) as service:
            for _ in range(args.rounds):
                for query in queries:
                    service.execute(query)
            _print_memory_payload(service.memory.payload(args.top), args.json)
    return 0


def cmd_api_serve(args) -> int:
    import tempfile
    import time

    from repro.api.model import load_model

    settings = bench_settings(args.scale)
    config = dataset1(settings.scale)[1]  # the x100 cube
    model = load_model(args.model, scale=settings.scale)
    print(
        f"building {config.name}: dims={config.dim_sizes} "
        f"valid={config.n_valid} ..."
    )
    with tempfile.TemporaryDirectory(prefix="repro-api-") as wal_dir:
        engine = build_cube_engine(config, settings, wal_dir=wal_dir)
        with _serving(
            engine, model, args.port, max_workers=args.threads
        ) as (_, server):
            print(
                f"serving {server.url} (see / for the routes)"
                + (f" for {args.duration:.0f}s" if args.duration else "")
            )
            try:
                if args.duration:
                    time.sleep(args.duration)
                else:
                    while True:
                        time.sleep(3600)
            except KeyboardInterrupt:
                print("\ninterrupted")
    return 0


def cmd_faultcheck(args) -> int:
    import tempfile

    from repro.bench.faultcheck import run_crash_matrix
    from repro.storage.crashpoints import registered_crash_points

    points = registered_crash_points()
    if args.point:
        points = tuple(p for p in points if p in set(args.point))
    print(
        f"faultcheck: {len(points)} crash points, seed={args.seed} "
        "(crash → recover → oracle check → commit → crash again → recover)"
    )
    with tempfile.TemporaryDirectory(prefix="repro-faultcheck-") as workdir:
        outcomes = run_crash_matrix(args.seed, workdir, points=points)
    header = (
        f"{'crash point':<26} {'crashed':>7} {'acked':>5} {'k':>3} "
        f"{'replayed':>8} {'torn':>4}  result"
    )
    print(header)
    print("-" * len(header))
    failures = 0
    for o in outcomes:
        status = "ok" if o.ok else "FAIL: " + "; ".join(o.errors)
        if not o.ok:
            failures += 1
        print(
            f"{o.crash_point:<26} {str(o.crashed):>7} {o.confirmed:>5} "
            f"{o.recovered:>3} {o.replayed_pages:>8} "
            f"{str(o.torn_tail):>4}  {status}"
        )
    if failures:
        print(f"{failures}/{len(outcomes)} scenarios FAILED")
        return 1
    print(f"all {len(outcomes)} scenarios upheld the crash-recovery property")
    return 0


def cmd_bench(args) -> int:
    import os

    pattern = f"benchmarks/test_{args.experiment}*.py"
    command = [
        sys.executable, "-m", "pytest", pattern, "--benchmark-only", "-q"
    ]
    env = dict(os.environ)
    if args.scale:
        env["REPRO_SCALE"] = args.scale
    return subprocess.call(command, env=env)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Array-based OLAP query evaluation (ICDE 1998 reproduction)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("info", help="version, scales, experiments").set_defaults(
        run=cmd_info
    )

    demo = commands.add_parser("demo", help="run Queries 1-3 on a synthetic cube")
    _add_scale_argument(demo)
    demo.add_argument(
        "--json",
        action="store_true",
        help="emit a machine-readable JSON report instead of the table",
    )
    demo.set_defaults(run=cmd_demo)

    trace = commands.add_parser(
        "trace",
        help="run one query with the span tracer and print the tree, or "
        "fetch a stored distributed trace by --id from a running endpoint",
    )
    trace.add_argument(
        "query", nargs="?", choices=sorted(_TRACE_QUERIES), default=None
    )
    trace.add_argument(
        "--id",
        metavar="TRACE_ID",
        help="fetch /trace/id/<trace_id> from --url instead of running "
        "a local query",
    )
    trace.add_argument(
        "--url", help="running endpoint base URL (with --id)"
    )
    trace.add_argument("--backend", default="array")
    trace.add_argument("--json", metavar="FILE", help="also write the trace as JSON")
    trace.add_argument(
        "--prom", metavar="FILE", help="also write Prometheus-style metrics"
    )
    _add_scale_argument(trace)
    trace.set_defaults(run=cmd_trace)

    explain = commands.add_parser(
        "explain",
        help="EXPLAIN / EXPLAIN ANALYZE one query: plan tree with "
        "estimates, actuals and misestimate factors",
    )
    explain.add_argument("query", choices=sorted(_TRACE_QUERIES))
    explain.add_argument("--backend", default="auto")
    explain.add_argument("--order", default="chunk", choices=("chunk", "naive"))
    explain.add_argument(
        "--shards",
        type=int,
        default=1,
        help="chunk-range shards to scatter array consolidations over "
        "(default 1)",
    )
    explain.add_argument(
        "--executor",
        choices=("local", "thread", "process"),
        default="local",
        help="where shard scans run when --shards > 1 (default local)",
    )
    explain.add_argument(
        "--analyze",
        action="store_true",
        help="run the query and attach measured actuals to every node",
    )
    explain.add_argument(
        "--json",
        action="store_true",
        help="emit the plan as JSON instead of the text tree",
    )
    explain.add_argument(
        "--validate",
        metavar="SCHEMA",
        help="validate the JSON payload against a schema file "
        "(see benchmarks/schemas/explain_plan.schema.json)",
    )
    _add_scale_argument(explain)
    explain.set_defaults(run=cmd_explain)

    sql = commands.add_parser("sql", help="run a SQL statement on a synthetic cube")
    sql.add_argument("statement", help="SELECT ... FROM fact, dimX ... GROUP BY ...")
    sql.add_argument("--backend", default="auto")
    sql.add_argument("--limit", type=int, default=20)
    _add_scale_argument(sql)
    sql.set_defaults(run=cmd_sql)

    storage = commands.add_parser("storage", help="print storage footprints")
    _add_scale_argument(storage)
    storage.set_defaults(run=cmd_storage)

    bench = commands.add_parser("bench", help="run one experiment via pytest")
    bench.add_argument("experiment", choices=EXPERIMENTS)
    _add_scale_argument(bench)
    bench.set_defaults(run=cmd_bench)

    serve = commands.add_parser(
        "serve", help="run a concurrent workload through the QueryService"
    )
    serve.add_argument("--threads", type=int, default=8)
    serve.add_argument("--rounds", type=int, default=2)
    serve.add_argument(
        "--metrics-port",
        type=int,
        default=None,
        metavar="PORT",
        help="serve the introspection routes (/metrics /healthz /traces "
        "...) while the workload runs (0 picks an ephemeral port)",
    )
    serve.add_argument(
        "--linger",
        type=float,
        default=0.0,
        metavar="S",
        help="keep the server up S seconds after the workload",
    )
    serve.add_argument(
        "--slow-threshold",
        type=float,
        default=0.25,
        metavar="S",
        help="latency in seconds at which a query counts as slow: its "
        "trace outlives fast ones and a slow miss caches its analyzed "
        "plan (default 0.25)",
    )
    _add_scale_argument(serve)
    serve.set_defaults(run=cmd_serve)

    mem = commands.add_parser(
        "mem",
        help="resident-set breakdown by store with the largest entries",
    )
    mem.add_argument(
        "--url",
        default=None,
        help="fetch <url>/memory from a running endpoint instead of "
        "running a local workload",
    )
    mem.add_argument(
        "--top",
        type=int,
        default=10,
        metavar="N",
        help="largest entries to list (default 10)",
    )
    mem.add_argument(
        "--json", action="store_true", help="print the raw payload"
    )
    mem.add_argument("--threads", type=int, default=2)
    mem.add_argument("--rounds", type=int, default=1)
    _add_scale_argument(mem)
    mem.set_defaults(run=cmd_mem)

    api_serve = commands.add_parser(
        "api-serve",
        help="standalone HTTP query API over a synthetic cube",
    )
    api_serve.add_argument("--port", type=int, default=8800)
    api_serve.add_argument("--threads", type=int, default=4)
    api_serve.add_argument(
        "--model", default="benchmarks/api_model.json", metavar="FILE"
    )
    api_serve.add_argument(
        "--duration",
        type=float,
        default=0.0,
        help="seconds to serve (default 0: until interrupted)",
    )
    _add_scale_argument(api_serve)
    api_serve.set_defaults(run=cmd_api_serve)

    faultcheck = commands.add_parser(
        "faultcheck",
        help="crash-recovery property check over every registered crash point",
    )
    faultcheck.add_argument(
        "--seed", type=int, default=0, help="fault-plan seed (default 0)"
    )
    faultcheck.add_argument(
        "--point",
        action="append",
        metavar="NAME",
        help="restrict to one crash point (repeatable)",
    )
    faultcheck.set_defaults(run=cmd_faultcheck)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except ReproError as exc:
        print(f"repro: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
