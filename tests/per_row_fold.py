"""The per-row aggregate fold: the reference the column fold is held to.

Each aggregate is a tiny fold on Python numbers: ``initial()`` produces
the state, ``add`` folds one measure in, ``merge`` combines two states,
and ``result`` extracts the final value.  Every backend once ran this
loop per tuple; now every backend folds numpy columns through
:class:`repro.aggregates.ColumnFold`, and this module survives only as
the oracle those columns must agree with (as ``probe_as_written`` does
for §4.2).
"""


class Aggregate:
    name = "?"

    def result(self, state):
        return state


class Sum(Aggregate):
    name = "sum"

    def initial(self):
        return 0

    def add(self, state, value):
        return state + value

    def merge(self, state, other):
        return state + other


class Count(Aggregate):
    name = "count"

    def initial(self):
        return 0

    def add(self, state, value):
        return state + 1

    def merge(self, state, other):
        return state + other


class Min(Aggregate):
    name = "min"

    def initial(self):
        return None

    def add(self, state, value):
        return value if state is None or value < state else state

    def merge(self, state, other):
        if state is None:
            return other
        if other is None:
            return state
        return min(state, other)


class Max(Aggregate):
    name = "max"

    def initial(self):
        return None

    def add(self, state, value):
        return value if state is None or value > state else state

    def merge(self, state, other):
        if state is None:
            return other
        if other is None:
            return state
        return max(state, other)


class Avg(Aggregate):
    name = "avg"

    def initial(self):
        return (0, 0)  # (sum, count)

    def add(self, state, value):
        return (state[0] + value, state[1] + 1)

    def merge(self, state, other):
        return (state[0] + other[0], state[1] + other[1])

    def result(self, state):
        total, count = state
        return total / count if count else None


class Variance(Aggregate):
    """Population variance from the (count, sum, sum-of-squares) sketch."""

    name = "var"

    def initial(self):
        return (0, 0.0, 0.0)

    def add(self, state, value):
        count, total, squares = state
        return (count + 1, total + value, squares + value * value)

    def merge(self, state, other):
        return tuple(a + b for a, b in zip(state, other))

    def result(self, state):
        count, total, squares = state
        if count == 0:
            return None
        mean = total / count
        return max(0.0, squares / count - mean * mean)


class StdDev(Variance):
    name = "stddev"

    def result(self, state):
        variance = super().result(state)
        return None if variance is None else variance**0.5


REFERENCE = {
    agg.name: agg
    for agg in (Sum(), Count(), Min(), Max(), Avg(), Variance(), StdDev())
}


def per_row_fold(name: str, values) -> object:
    """``values`` folded one at a time by aggregate ``name``."""
    agg = REFERENCE[name]
    state = agg.initial()
    for value in values:
        state = agg.add(state, value)
    return agg.result(state)


def per_row_group_by(rows, n_groups: int, aggregates: list[str]) -> list[tuple]:
    """Sorted ``(group values..., results...)`` of ``rows``, each of
    which is ``(group values..., measures...)``: the per-tuple hash
    group-by every relational operator ran."""
    aggs = [REFERENCE[name] for name in aggregates]
    groups: dict[tuple, list] = {}
    for row in rows:
        state = groups.setdefault(row[:n_groups], [a.initial() for a in aggs])
        for m, agg in enumerate(aggs):
            state[m] = agg.add(state[m], row[n_groups + m])
    return [
        key + tuple(agg.result(s) for agg, s in zip(aggs, state))
        for key, state in sorted(groups.items())
    ]
