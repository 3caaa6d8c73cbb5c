"""Tests for the backend-choice rule."""

import pytest

from repro.errors import PlanError
from repro.olap import planner
from repro.olap.planner import (
    DEFAULT_CROSSOVER_SELECTIVITY,
    PlannerInputs,
    choose_backend,
    require_backend_available,
)


def inputs(**kwargs):
    defaults = dict(
        has_array=True,
        has_bitmaps=True,
        has_selections=False,
        estimated_selectivity=1.0,
    )
    defaults.update(kwargs)
    return PlannerInputs(**defaults)


class TestChooseBackend:
    def test_no_selection_prefers_array(self):
        assert choose_backend(inputs()) == "array"

    def test_no_selection_no_array_falls_back_to_starjoin(self):
        assert choose_backend(inputs(has_array=False)) == "starjoin"

    def test_selection_above_crossover_uses_array(self):
        picked = choose_backend(
            inputs(has_selections=True, estimated_selectivity=0.01)
        )
        assert picked == "array"

    def test_selection_below_crossover_uses_bitmap(self):
        picked = choose_backend(
            inputs(has_selections=True, estimated_selectivity=0.0001)
        )
        assert picked == "bitmap"

    def test_paper_crossover_value(self):
        # §5.6: the observed crossover is S = 0.00024
        assert DEFAULT_CROSSOVER_SELECTIVITY == pytest.approx(0.00024)
        at_crossover = choose_backend(
            inputs(has_selections=True, estimated_selectivity=0.00024)
        )
        assert at_crossover == "array"  # strictly-below goes bitmap

    def test_no_bitmaps_keeps_array_even_when_tiny(self):
        picked = choose_backend(
            inputs(
                has_selections=True,
                has_bitmaps=False,
                estimated_selectivity=1e-9,
            )
        )
        assert picked == "array"

    def test_selection_without_array(self):
        picked = choose_backend(
            inputs(has_array=False, has_selections=True)
        )
        assert picked == "bitmap"
        picked = choose_backend(
            inputs(has_array=False, has_bitmaps=False, has_selections=True)
        )
        assert picked == "starjoin"

    def test_custom_crossover(self, monkeypatch):
        monkeypatch.setattr(planner, "DEFAULT_CROSSOVER_SELECTIVITY", 0.5)
        picked = choose_backend(
            inputs(has_selections=True, estimated_selectivity=0.01)
        )
        assert picked == "bitmap"


class TestRangeSelectionFallback:
    """Bitmaps can only serve BETWEEN by enumerating the domain — the
    planner must not pick them for range predicates."""

    def test_no_array_range_falls_back_to_starjoin(self):
        # the old rule returned "bitmap" here regardless of predicate shape
        picked = choose_backend(
            inputs(
                has_array=False,
                has_selections=True,
                has_range_selections=True,
            )
        )
        assert picked == "starjoin"

    def test_no_array_in_list_still_uses_bitmap(self):
        picked = choose_backend(
            inputs(
                has_array=False,
                has_selections=True,
                has_range_selections=False,
            )
        )
        assert picked == "bitmap"

    def test_range_below_crossover_keeps_array(self):
        picked = choose_backend(
            inputs(
                has_selections=True,
                has_range_selections=True,
                estimated_selectivity=1e-6,
            )
        )
        assert picked == "array"

    def test_regression_at_crossover_boundary(self):
        # §5.6 boundary: S exactly 0.00024 with a range predicate must
        # never flip to bitmap, with or without an array
        at_boundary = dict(
            has_selections=True,
            has_range_selections=True,
            estimated_selectivity=0.00024,
        )
        assert choose_backend(inputs(**at_boundary)) == "array"
        assert (
            choose_backend(inputs(has_array=False, **at_boundary))
            == "starjoin"
        )
        # and just below the boundary, where equality predicates *do*
        # go to bitmap, ranges still must not
        below = dict(at_boundary, estimated_selectivity=0.000239)
        assert choose_backend(inputs(**below)) == "array"
        below_eq = dict(below, has_range_selections=False)
        assert choose_backend(inputs(**below_eq)) == "bitmap"


class TestAvailability:
    def test_available_passes(self):
        require_backend_available("array", {"array", "starjoin"})

    def test_missing_raises(self):
        with pytest.raises(PlanError):
            require_backend_available("bitmap", {"array"})
