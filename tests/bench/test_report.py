"""Tests for experiment-table rendering."""

import os

import pytest

from repro.bench.report import ExperimentTable
from repro.olap.engine import QueryResult


def result(cost=1.0, io=0.4):
    return QueryResult(
        rows=[("a", 1)],
        backend="array",
        elapsed_s=cost - io,
        sim_io_s=io,
        stats={"pages_read": 10},
    )


class TestExperimentTable:
    def test_add_and_value(self):
        table = ExperimentTable("t1", "title", "x")
        table.add("array", 50, result(cost=1.5))
        assert table.value("array", 50) == pytest.approx(1.5)

    def test_add_value_raw(self):
        table = ExperimentTable("t1", "title", "x")
        table.add_value("bytes", "dense", 1234)
        assert table.value("bytes", "dense") == 1234

    def test_render_contains_all_cells(self):
        table = ExperimentTable("t1", "My Title", "density", expected="a<b")
        table.add("array", 0.1, result(cost=1.2345))
        table.add("starjoin", 0.1, result(cost=2.5))
        text = table.render()
        assert "My Title" in text
        assert "a<b" in text
        assert "1.2345" in text
        assert "2.5000" in text
        assert "density" in text

    def test_render_missing_cell_is_dash(self):
        table = ExperimentTable("t1", "t", "x")
        table.add("a", 1, result())
        table.add("b", 2, result())
        lines = table.render().splitlines()
        assert any("-" in line and "1" in line for line in lines[4:])

    def test_x_order_is_insertion_order(self):
        table = ExperimentTable("t1", "t", "x")
        table.add("a", 100, result())
        table.add("a", 1, result())
        rows = table.render().splitlines()[-2:]
        assert rows[0].startswith("100")
        assert rows[1].startswith("1")

    def test_save_writes_file(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
        table = ExperimentTable("exp9", "t", "x")
        table.add("a", 1, result())
        path = table.save()
        assert os.path.dirname(path) == str(tmp_path)
        with open(path, encoding="utf-8") as handle:
            assert "exp9" in handle.read()

    def test_series_names(self):
        table = ExperimentTable("t", "t", "x")
        table.add("one", 1, result())
        table.add("two", 1, result())
        assert table.series_names() == ["one", "two"]
