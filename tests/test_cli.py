"""Tests for the command-line interface."""

import re

import pytest

from repro.cli import EXPERIMENTS, build_parser, main


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fly"])

    def test_bench_requires_known_experiment(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bench", "fig99"])

    def test_scale_choices_enforced(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["demo", "--scale", "galactic"])

    def test_experiment_list_covers_benchmark_modules(self):
        import os

        bench_dir = os.path.join(
            os.path.dirname(__file__), "..", "benchmarks"
        )
        modules = {
            f[len("test_"):-len(".py")]
            for f in os.listdir(bench_dir)
            if f.startswith("test_") and f.endswith(".py")
        }
        for experiment in EXPERIMENTS:
            assert any(m.startswith(experiment) for m in modules), experiment

    def test_the_subcommands_are_exactly_these(self):
        # the usage line lists the subcommands as one ``{a,b,...}`` choice
        (commands,) = re.findall(r"\{([^}]*)\}", build_parser().format_usage())
        assert commands.split(",") == (
            "info demo trace explain sql storage bench serve mem "
            "api-serve faultcheck"
        ).split()


class TestCommands:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "repro" in out
        assert "fig4" in out

    def test_demo_small(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "small")
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "Query 1" in out and "Query 3" in out
        assert "planner would pick" in out

    def test_demo_small_json(self, capsys, monkeypatch):
        import json

        monkeypatch.setenv("REPRO_SCALE", "small")
        assert main(["demo", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["scale"] == "small"
        assert len(report["queries"]) == 3
        first = report["queries"][0]
        assert first["planner_pick"]
        assert all(b["cost_s"] > 0 for b in first["backends"])

    def test_trace_small(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_SCALE", "small")
        trace_file = tmp_path / "trace.json"
        prom_file = tmp_path / "metrics.prom"
        assert main(
            [
                "trace", "q2", "--backend", "array",
                "--json", str(trace_file), "--prom", str(prom_file),
            ]
        ) == 0
        out = capsys.readouterr().out
        assert out.startswith("query")
        assert "probe_chunks" in out
        from tests.prom_text import trace_from_json

        spans = trace_from_json(trace_file.read_text())
        assert spans[0].name == "query"
        assert spans[0].leaf_io_totals() == spans[0].io
        assert "repro_pages_read_total" in prom_file.read_text()

    def test_sql_small(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "small")
        statement = (
            "select sum(volume), dim0.h01 from fact, dim0 "
            "where fact.d0 = dim0.d0 group by h01"
        )
        assert main(["sql", statement, "--limit", "3"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("AA")

    def test_storage_small(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "small")
        assert main(["storage"]) == 0
        out = capsys.readouterr().out
        assert "fact_file" in out
        assert "array_total" in out


class TestExplainCommand:
    def test_explain_renders_a_text_tree(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "small")
        assert main(["explain", "q1", "--backend", "array"]) == 0
        out = capsys.readouterr().out
        assert "EXPLAIN" in out
        assert "array.scan_chunks" in out
        assert "est{" in out
        assert "act{" not in out  # estimate-only

    def test_explain_analyze_shows_actuals(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "small")
        assert main(
            ["explain", "q2", "--backend", "array", "--analyze"]
        ) == 0
        out = capsys.readouterr().out
        assert "EXPLAIN ANALYZE" in out
        assert "act{" in out
        assert "worst=x" in out

    def test_explain_json_validates_against_checked_in_schema(
        self, capsys, monkeypatch
    ):
        import json
        import os

        from repro.util.jsonschema_lite import validate

        monkeypatch.setenv("REPRO_SCALE", "small")
        schema_path = os.path.join(
            os.path.dirname(__file__),
            "..", "benchmarks", "schemas", "explain_plan.schema.json",
        )
        assert main(
            ["explain", "q1", "--json", "--validate", schema_path]
        ) == 0
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert payload["backend"]
        assert payload["plan"]["op"].endswith(".query")
        with open(schema_path, encoding="utf-8") as handle:
            validate(payload, json.load(handle))
        assert "validates" in captured.err

    def test_explain_validate_failure_is_nonzero(
        self, capsys, monkeypatch, tmp_path
    ):
        monkeypatch.setenv("REPRO_SCALE", "small")
        bad_schema = tmp_path / "strict.json"
        bad_schema.write_text(
            '{"type": "object", "required": ["no_such_key"]}'
        )
        assert main(
            ["explain", "q1", "--json", "--validate", str(bad_schema)]
        ) == 1
        assert "FAIL" in capsys.readouterr().err

    @pytest.mark.parametrize("backend", ["btree", "nope"])
    def test_a_backend_the_engine_does_not_route_is_one_line(
        self, capsys, monkeypatch, backend
    ):
        monkeypatch.setenv("REPRO_SCALE", "small")
        assert main(["explain", "q2", "--backend", backend]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        message = captured.err.strip()
        assert message.startswith(f"repro: unknown backend '{backend}'")
        assert "\n" not in message
        for name in ("array", "starjoin", "bitmap"):
            assert name in message


class TestTraceById:
    """``repro trace --id <id> --url <endpoint>`` renders one stored
    record: its span trees, then the analyzed plans of its slow misses."""

    @pytest.fixture
    def live(self):
        import contextlib

        from repro.api.model import LogicalModel
        from repro.api.server import ApiEndpoint, ApiServer
        from repro.bench import query2_for
        from repro.obs.tracing import new_trace_context, trace_context
        from repro.serve import QueryService, ServiceConfig
        from tests.serve.conftest import CONFIG, fresh_engine

        engine = fresh_engine()
        config = ServiceConfig(slow_threshold_s=0.0)  # every query is slow
        with QueryService(engine, config) as service:
            ctx = new_trace_context(origin="test")
            with trace_context(ctx):
                service.execute(query2_for(CONFIG), "array")
            endpoint = ApiEndpoint(engine, service, LogicalModel(cubes=()))
            with contextlib.closing(endpoint), ApiServer(endpoint) as server:
                yield ctx.trace_id, server.url

    def test_renders_span_trees_then_the_slow_miss_plan(
        self, capsys, live, tmp_path
    ):
        import json

        trace_id, url = live
        dump = tmp_path / "trace.json"
        assert main(
            ["trace", "--id", trace_id, "--url", url, "--json", str(dump)]
        ) == 0
        out = capsys.readouterr().out
        assert out.startswith(f"trace {trace_id} [ok]")
        spans, plan = out.index("serve_query"), out.index("EXPLAIN ANALYZE")
        assert spans < plan
        assert "backend=array" in out[plan:]
        assert "act{" in out[plan:]
        (stored,) = json.loads(dump.read_text())["plans"]
        assert stored["analyzed"] is True

    def test_an_unknown_id_is_a_404(self, capsys, live):
        _, url = live
        assert main(["trace", "--id", "0" * 32, "--url", url]) == 1
        assert "HTTP 404" in capsys.readouterr().err
