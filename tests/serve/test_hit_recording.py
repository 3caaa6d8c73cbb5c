"""What one result-cache hit does in the flight recorder.

A hit with no caller context records a fresh service-minted trace: one
``TraceStore.record`` call, one growth step (the store's pressure hook
fires once).  Its root is built as the dict the store keeps, so no span
is serialized, and its charge measures only what varies: the record's
origin, the name the hit gives it (old and new), the two attrs (their
dict twice, each key and value once), and the root's four containers
(the root dict, its attrs, its io and its children) — 13
``sys.getsizeof`` calls.  The hit's ``ok`` status is the empty
record's, so it is not measured.
"""

import sys

import repro.obs.exporters
import repro.serve.service
from repro.bench import query1_for
from repro.serve import QueryService

from .conftest import CONFIG

QUERY1 = query1_for(CONFIG)

#: origin + 2 name + 2 attrs dict + 2 keys + 2 values + 4 containers
GETSIZEOF_PER_HIT = 13


def counting(calls: list, name: str, function):
    def counted(*args, **kwargs):
        calls.append(name)
        return function(*args, **kwargs)

    return counted


def test_a_hit_records_its_trace_in_one_growth_step(engine, monkeypatch):
    with QueryService(engine) as service:
        service.execute(QUERY1)  # the miss that fills the cache
        traces = service.traces
        stored = traces.counters.get("traces.stored")
        calls: list[str] = []
        monkeypatch.setattr(traces, "record", counting(calls, "record", traces.record))
        monkeypatch.setattr(
            traces,
            "pressure_hook",
            counting(calls, "hook", traces.pressure_hook or (lambda: None)),
        )
        for module in (repro.serve.service, repro.obs.exporters):
            monkeypatch.setattr(
                module,
                "span_to_dict",
                counting(calls, "span_to_dict", module.span_to_dict),
            )
        monkeypatch.setattr(
            sys, "getsizeof", counting(calls, "getsizeof", sys.getsizeof)
        )
        result = service.execute(QUERY1)
        monkeypatch.undo()
        assert result.stats["result_cache_hit"] == 1.0
        assert calls.count("record") == 1
        assert calls.count("hook") == 1
        assert calls.count("span_to_dict") == 0
        assert calls.count("getsizeof") == GETSIZEOF_PER_HIT
        assert traces.counters.get("traces.stored") == stored + 1
        assert traces.counters.get("traces.merged") == 0
        (record,) = [r for r in traces.values() if r.roots[0]["attrs"]["cache"] == "hit"]
        assert record.origin == "service"
        assert record.attrs["cube"] == CONFIG.name
        assert traces.resident_bytes() == sum(
            e["bytes"] for e in traces.top_entries(traces.capacity)
        )
