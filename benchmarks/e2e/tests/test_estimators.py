"""The slot estimator and the span self-time arithmetic, by hand."""

import pytest

from benchmarks.e2e.estimators import (
    band_mean,
    layer_self_ms,
    quantile,
    self_times,
    slot_values,
    spread,
)


def test_quantile_interpolates_between_ranks():
    assert quantile([4.0, 1.0, 3.0, 2.0], 0.5) == 2.5
    assert quantile([1.0, 2.0, 3.0, 4.0, 5.0], 0.9) == pytest.approx(4.6)
    assert quantile([7.0], 0.9) == 7.0
    with pytest.raises(ValueError):
        quantile([], 0.5)


def test_slot_value_is_the_fastest_of_that_slots_passes():
    passes = [[10.0, 1.0], [8.0, 3.0], [9.0, 2.0], [12.0, 9.0], [11.0, 4.0]]
    assert slot_values(passes) == [8.0, 1.0]
    assert slot_values([[5.0, 6.0]]) == [5.0, 6.0]
    with pytest.raises(ValueError):
        slot_values([])


def test_band_mean_averages_the_slots_ranked_around_the_quantile():
    values = [float(v) for v in range(80, 0, -1)]  # 1..80, unsorted
    # ranks 0.85 * 79 = 67.15 -> 67 and 0.95 * 79 = 75.05 -> 75: 68..76
    assert band_mean(values, 0.90) == 72.0
    # ranks 0.45 * 79 = 35.55 -> 36 and 0.55 * 79 = 43.45 -> 43: 37..44
    assert band_mean(values, 0.50) == 40.5
    assert band_mean([7.0], 0.90) == 7.0
    assert band_mean([1.0, 2.0, 30.0], 0.90) == 30.0  # the band never leaves the list
    with pytest.raises(ValueError):
        band_mean([], 0.5)


def test_spread_is_iqr_over_median():
    values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]
    # statistics.quantiles(n=4) of 1..7 is 2, 4, 6
    assert spread(values) == pytest.approx((6 - 2) / 4)


def span(name, start, end, parent=None):
    return [name, start, end, parent]


def test_self_time_subtracts_children():
    root = span("driver:op", 0, 100)
    a = span("olap:query", 10, 90, root)
    b = span("core.scan:scan", 20, 50, a)
    c = span("storage.pool:get", 60, 70, a)
    own = self_times([b, c, a, root])
    assert own[id(root)] == 20
    assert own[id(a)] == 40
    assert own[id(b)] == 30
    assert own[id(c)] == 10
    assert sum(own.values()) == 100  # one tree sums to its root


def test_children_are_clipped_to_the_parent():
    root = span("driver:op", 0, 100)
    late = span("api:http", 50, 160, root)  # handler outlives the caller
    inner = span("api:json", 120, 150, late)  # entirely after the op
    own = self_times([inner, late, root])
    assert own[id(root)] == 50
    assert own[id(late)] == 50
    assert own[id(inner)] == 0


def test_overlapping_children_count_once():
    root = span("driver:op", 0, 100)
    one = span("serve:execute", 10, 60, root)
    two = span("serve:execute", 40, 80, root)  # another thread
    own = self_times([one, two, root])
    assert own[id(root)] == 100 - 70


def test_layer_sums_keep_only_op_trees():
    root = span("driver:op", 0_000_000, 10_000_000)
    child = span("serve:QueryService.execute", 2_000_000, 6_000_000, root)
    background = span("serve:QueryService.execute", 0, 50_000_000)
    rebuild = span("core.scan:consolidate", 1_000_000, 40_000_000, background)
    spans = [child, root, rebuild, background]
    assert layer_self_ms(spans, root_name="driver:op") == {
        "serve": 4.0,
        "driver": 6.0,
    }
    everything = layer_self_ms(spans)
    assert everything["core.scan"] == 39.0
    assert everything["serve"] == 4.0 + 11.0
