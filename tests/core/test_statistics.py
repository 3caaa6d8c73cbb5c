"""Tests for the statistical ADT functions (§3.5's promised analytics)."""

import numpy as np
import pytest

from repro.core.builder import build_olap_array
from repro.errors import ArrayError

from .conftest import make_dimensions


@pytest.fixture
def two_measure_cube(fm_big):
    """A cube with two correlated measures per cell."""
    rng = np.random.default_rng(7)
    facts = []
    for i in range(6):
        for j in range(5):
            for k in range(7):
                if (i + j + k) % 2:
                    continue
                x = int(rng.integers(1, 50))
                y = 3 * x + int(rng.integers(-2, 3))  # strongly correlated
                facts.append((i, j, k, x, y))
    array = build_olap_array(
        fm_big,
        "stats",
        make_dimensions(),
        facts,
        (3, 2, 4),
        measure_names=["x", "y"],
    )
    return array, facts


class TestMeasureStats:
    def test_whole_array_stats_match_numpy(self, two_measure_cube):
        array, facts = two_measure_cube
        stats = array.measure_stats()
        xs = np.array([f[3] for f in facts], dtype=float)
        assert stats["x"]["count"] == len(facts)
        assert stats["x"]["sum"] == pytest.approx(xs.sum())
        assert stats["x"]["mean"] == pytest.approx(xs.mean())
        assert stats["x"]["var"] == pytest.approx(xs.var())

    def test_region_stats(self, two_measure_cube):
        array, facts = two_measure_cube
        stats = array.measure_stats([(0, 2), None, None])
        selected = [f for f in facts if f[0] <= 2]
        assert stats["y"]["count"] == len(selected)
        assert stats["y"]["sum"] == pytest.approx(sum(f[4] for f in selected))

    def test_empty_region(self, cube):
        array, facts = cube
        valid = {f[:3] for f in facts}
        import itertools

        missing = next(
            c
            for c in itertools.product(range(6), range(5), range(7))
            if c not in valid
        )
        stats = array.measure_stats([(c, c) for c in missing])
        assert stats["m0"] == {"count": 0}


class TestCorrelation:
    def test_strong_positive_correlation(self, two_measure_cube):
        array, _ = two_measure_cube
        assert array.correlation("x", "y") > 0.99

    def test_matches_numpy_corrcoef(self, two_measure_cube):
        array, facts = two_measure_cube
        xs = [f[3] for f in facts]
        ys = [f[4] for f in facts]
        expected = np.corrcoef(xs, ys)[0, 1]
        assert array.correlation("x", "y") == pytest.approx(expected)

    def test_self_correlation_is_one(self, two_measure_cube):
        array, _ = two_measure_cube
        assert array.correlation("x", "x") == pytest.approx(1.0)

    def test_region_restricted(self, two_measure_cube):
        array, facts = two_measure_cube
        region = [(0, 1), None, None]
        selected = [f for f in facts if f[0] <= 1]
        expected = np.corrcoef(
            [f[3] for f in selected], [f[4] for f in selected]
        )[0, 1]
        got = array.correlation("x", "y", ranges=region)
        assert got == pytest.approx(expected)

    def test_too_few_cells_is_none(self, fm_big):
        facts = [(0, 0, 0, 5, 7)]
        array = build_olap_array(
            fm_big,
            "one",
            make_dimensions(),
            facts,
            (3, 2, 4),
            measure_names=["x", "y"],
        )
        assert array.correlation("x", "y") is None

    def test_constant_measure_is_none(self, fm_big):
        facts = [(0, 0, 0, 5, 1), (1, 1, 1, 5, 2), (2, 2, 2, 5, 3)]
        array = build_olap_array(
            fm_big,
            "const",
            make_dimensions(),
            facts,
            (3, 2, 4),
            measure_names=["x", "y"],
        )
        assert array.correlation("x", "y") is None

    def test_unknown_measure(self, two_measure_cube):
        array, _ = two_measure_cube
        with pytest.raises(ArrayError):
            array.correlation("x", "zzz")
