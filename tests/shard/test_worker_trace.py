"""Folding a shard task's counters into the query's bag.

The coordinator folds each task's private counter bag into the query's
once, whatever the executor.  These tests pin the zero-valued-delta
regression: a measured zero is folded, an absent key stays absent.
"""

from repro.util.stats import Counters


class RecordingCounters(Counters):
    """Counters that remember every ``add`` call.

    ``Counters.snapshot()`` drops zero values, so asserting on a
    snapshot cannot distinguish "folded a measured zero" from "dropped
    the key" — the exact regression under test.  Observing the add()
    call path can.
    """

    def __init__(self):
        super().__init__()
        self.calls: dict[str, list] = {}

    def add(self, name, amount=1.0):
        self.calls.setdefault(name, []).append(amount)
        super().add(name, amount)


class TestZeroDeltaFold:
    def _run_fold(self, engine, deltas):
        """Fold one shard's counter deltas into a recording bag."""
        recorded = RecordingCounters()
        engine.shard_coordinator._fold_shard_counters(recorded, 0, deltas)
        return recorded

    def test_zero_valued_deltas_fold_on_key_presence(self, engine):
        # regression: a measured zero ("this shard read nothing") used
        # to be dropped by `deltas.get(key)` truthiness.  Counters
        # snapshots drop zero values, so observe the add() path itself.
        recorded = self._run_fold(
            engine,
            {"chunks_read": 0, "cells_scanned": 0, "chunks_skipped": 4},
        )
        calls = recorded.calls
        assert calls["chunks_read"] == [0]
        assert calls["cells_scanned"] == [0]
        assert calls["chunks_skipped"] == [4]

    def test_absent_keys_stay_absent(self, engine):
        recorded = self._run_fold(engine, {"chunks_read": 2})
        assert "cells_scanned" not in recorded.calls
        assert recorded.calls["chunks_read"] == [2]
