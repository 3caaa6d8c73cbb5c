"""A feasible memory budget holds at every enforce-then-read sample.

The eviction hammer in ``tests/api/test_memory_pressure.py`` runs under
a budget below the unreclaimable floor on purpose, so it cannot assert
the budget *held*.  Here the budget is 90 % of the same workload's own
unbudgeted high-water mark: reachable, but only by reclaiming.
"""

from repro.bench import (
    bench_settings,
    build_cube_engine,
    query1_for,
    query2_for,
    query3_for,
)
from repro.data import dataset1, generate_fact_rows
from repro.serve import QueryService, ServiceConfig

CONFIG = dataset1("small")[1]  # the x100 cube
QUERIES = (query1_for(CONFIG), query2_for(CONFIG), query3_for(CONFIG))
ROUNDS = 12


def _resident_trajectory(budget_bytes):
    """Queries 1-3 x ROUNDS with a cell write every third round; returns
    one ``total_resident_bytes`` per answer and the pressure-event count.
    Every answer is checked against the engine's own."""
    engine = build_cube_engine(CONFIG, bench_settings("small"))
    keys = tuple(generate_fact_rows(CONFIG)[0][: CONFIG.ndim])
    trajectory = []
    with QueryService(
        engine, ServiceConfig(memory_budget_bytes=budget_bytes)
    ) as service:
        for beat in range(ROUNDS):
            if beat % 3 == 2:
                service.write_cell(CONFIG.name, keys, (beat,))
            for query in QUERIES:
                assert service.execute(query).rows == engine.query(query).rows
                sample = service.memory.sample("test")
                trajectory.append(sample["total_resident_bytes"])
        events = service.memory.counters.snapshot().get(
            "memory.pressure_events", 0
        )
    return trajectory, events


def test_budget_at_90_percent_of_high_water_holds():
    unbudgeted, events = _resident_trajectory(0)
    assert events == 0
    budget = int(0.9 * max(unbudgeted))
    budgeted, events = _resident_trajectory(budget)
    assert max(budgeted) <= budget
    assert events >= 1
