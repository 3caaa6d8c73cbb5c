"""Declarative SLO rules evaluated against the time-series store.

A service-level objective here is a small declarative rule — "the p99
query latency over the last 30 s stays under 2 s", "the result-cache
hit rate over the last 30 s stays above 5%", "no cube stays degraded
longer than 5 s", "the admission error budget burns slower than 10× in
both a short and a long window" — evaluated periodically against the
:class:`~repro.obs.timeseries.TimeSeriesStore` rather than against raw
instantaneous metrics, so one slow query or one cold tick cannot flap
an alert.

Rule kinds (the ``kind`` field of :class:`SloRule`):

``latency_quantile_ceiling``
    Windowed histogram quantile above a ceiling, with a minimum
    observation count so an idle window can never breach.  Also covers
    the WAL-fsync-stall rule (a fsync histogram is a latency histogram).
``hit_rate_floor``
    Windowed ``hits / (hits + misses)`` below a floor, with a minimum
    total so the first few lookups cannot breach.
``gauge_ceiling``
    A sampled gauge above a ceiling *sustained* for ``for_s`` seconds —
    the degraded-cube-duration rule.
``burn_rate``
    Google-SRE-style multi-window burn rate: the error ratio
    ``bad / total``, expressed as a multiple of the budget implied by
    ``objective``, must exceed ``factor`` in BOTH the short and the
    long window to fire (fast windows catch onset, long windows stop
    flapping).

The :class:`AlertManager` tracks firing/resolved state per rule,
records every transition into a bounded alert log, and — for latency
rules — links the slow-query fingerprints captured inside the breached
window, so ``/alerts`` output points at the offending queries without a
separate slowlog scrape.
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from dataclasses import dataclass, field

from repro.errors import MetricsError
from repro.obs.slowlog import SlowQueryLog
from repro.obs.timeseries import TimePoint, TimeSeriesStore

KINDS = (
    "latency_quantile_ceiling",
    "hit_rate_floor",
    "gauge_ceiling",
    "burn_rate",
)

#: fingerprints linked per firing latency alert, newest first
MAX_LINKED_FINGERPRINTS = 8


@dataclass(frozen=True)
class SloRule:
    """One declarative SLO rule (see module docstring for kinds)."""

    name: str
    kind: str
    description: str = ""
    severity: str = "warn"
    #: trailing evaluation window, seconds (latency / hit-rate / burn short)
    window_s: float = 30.0
    # latency_quantile_ceiling / gauge_ceiling
    metric: str | None = None
    quantile: float = 0.99
    ceiling: float | None = None
    min_count: int = 1
    # gauge_ceiling
    for_s: float = 0.0
    # hit_rate_floor
    hits: str | None = None
    misses: str | None = None
    floor: float | None = None
    # burn_rate
    bad: str | None = None
    total: str | None = None
    objective: float = 0.99
    factor: float = 10.0
    long_window_s: float = 300.0

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise MetricsError(
                f"rule {self.name!r}: unknown kind {self.kind!r} "
                f"(expected one of {KINDS})"
            )
        needed: tuple[str, ...]
        if self.kind == "latency_quantile_ceiling":
            needed = ("metric", "ceiling")
        elif self.kind == "gauge_ceiling":
            needed = ("metric", "ceiling")
        elif self.kind == "hit_rate_floor":
            needed = ("hits", "misses", "floor")
        else:
            needed = ("bad", "total")
        for attr in needed:
            if getattr(self, attr) is None:
                raise MetricsError(
                    f"rule {self.name!r} ({self.kind}) needs {attr!r}"
                )

    def to_dict(self) -> dict:
        """The JSON shape of this rule (defaults omitted)."""
        payload: dict = {"name": self.name, "kind": self.kind}
        if self.description:
            payload["description"] = self.description
        payload["severity"] = self.severity
        payload["window_s"] = self.window_s
        if self.kind == "latency_quantile_ceiling":
            payload.update(
                metric=self.metric,
                quantile=self.quantile,
                ceiling=self.ceiling,
                min_count=self.min_count,
            )
        elif self.kind == "gauge_ceiling":
            payload.update(
                metric=self.metric, ceiling=self.ceiling, for_s=self.for_s
            )
        elif self.kind == "hit_rate_floor":
            payload.update(
                hits=self.hits,
                misses=self.misses,
                floor=self.floor,
                min_count=self.min_count,
            )
        else:
            payload.update(
                bad=self.bad,
                total=self.total,
                objective=self.objective,
                factor=self.factor,
                long_window_s=self.long_window_s,
                min_count=self.min_count,
            )
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "SloRule":
        """Build a rule from its JSON form (unknown keys rejected)."""
        known = set(cls.__dataclass_fields__)  # type: ignore[attr-defined]
        unknown = set(payload) - known
        if unknown:
            raise MetricsError(
                f"rule {payload.get('name', '?')!r}: unknown keys "
                f"{sorted(unknown)}"
            )
        if "name" not in payload or "kind" not in payload:
            raise MetricsError("a rule needs at least 'name' and 'kind'")
        return cls(**payload)


def load_rules(path: str) -> list[SloRule]:
    """Parse a JSON rule file (a list of rule objects) into rules."""
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    if not isinstance(payload, list):
        raise MetricsError(f"{path}: expected a JSON array of rules")
    rules = [SloRule.from_dict(entry) for entry in payload]
    names = [rule.name for rule in rules]
    if len(set(names)) != len(names):
        raise MetricsError(f"{path}: duplicate rule names")
    return rules


def default_rules() -> list[SloRule]:
    """The shipped SLO rule set (mirrored in ``benchmarks/slo_rules.json``).

    Thresholds are deliberately lax: the healthy serving path at every
    scale must never fire one, so *any* default-rule transition is a
    regression.
    """
    return [
        SloRule(
            name="serve-latency-p99",
            kind="latency_quantile_ceiling",
            description="end-to-end p99 query latency ceiling",
            severity="page",
            metric="serve.query_latency_seconds",
            quantile=0.99,
            ceiling=2.0,
            window_s=30.0,
            min_count=20,
        ),
        SloRule(
            name="wal-fsync-stall",
            kind="latency_quantile_ceiling",
            description="WAL fsync p99 stall ceiling",
            severity="page",
            metric="wal.fsync_seconds",
            quantile=0.99,
            ceiling=1.0,
            window_s=30.0,
            min_count=5,
        ),
        SloRule(
            name="result-cache-hit-floor",
            kind="hit_rate_floor",
            description="windowed result-cache hit-rate floor",
            severity="warn",
            hits="result_cache.hits",
            misses="result_cache.misses",
            floor=0.05,
            window_s=30.0,
            min_count=50,
        ),
        SloRule(
            name="chunk-cache-hit-floor",
            kind="hit_rate_floor",
            description="windowed decoded-chunk-cache hit-rate floor",
            severity="warn",
            hits="chunk_cache.hits",
            misses="chunk_cache.misses",
            floor=0.05,
            window_s=30.0,
            min_count=50,
        ),
        SloRule(
            name="degraded-cube-duration",
            kind="gauge_ceiling",
            description="a cube stayed degraded too long",
            severity="page",
            metric="serve.degraded_cubes",
            ceiling=0.0,
            for_s=5.0,
            window_s=30.0,
        ),
        SloRule(
            name="admission-burn-rate",
            kind="burn_rate",
            description="admission rejections burning the error budget "
            "in both windows",
            severity="page",
            bad="serve.rejected",
            total="serve.admitted",
            objective=0.99,
            factor=10.0,
            window_s=5.0,
            long_window_s=60.0,
            min_count=20,
        ),
        SloRule(
            name="memory-resident-ceiling",
            kind="gauge_ceiling",
            description="accounted resident set stayed above the "
            "process memory ceiling",
            severity="page",
            metric="memory.total_resident_bytes",
            ceiling=2.0 * 1024**3,
            for_s=5.0,
            window_s=30.0,
        ),
    ]


@dataclass
class _RuleState:
    firing: bool = False
    since: float | None = None
    last_value: float | None = None
    firings: int = 0


class AlertManager:
    """Evaluates rules against a TSDB; tracks firing state + alert log."""

    def __init__(
        self,
        timeseries: TimeSeriesStore,
        rules: list[SloRule] | None = None,
        slowlog: SlowQueryLog | None = None,
        log_capacity: int = 256,
    ):
        self.timeseries = timeseries
        self.slowlog = slowlog
        self._rules: dict[str, SloRule] = {}
        self._states: dict[str, _RuleState] = {}
        self._events: deque[dict] = deque(maxlen=log_capacity)
        self._lock = threading.RLock()
        self._evaluations = 0
        for rule in default_rules() if rules is None else rules:
            self.add_rule(rule)

    # -- rule set ------------------------------------------------------------

    def add_rule(self, rule: SloRule) -> None:
        with self._lock:
            if rule.name in self._rules:
                raise MetricsError(f"rule {rule.name!r} already installed")
            self._rules[rule.name] = rule
            self._states[rule.name] = _RuleState()

    def remove_rule(self, name: str) -> None:
        with self._lock:
            if name not in self._rules:
                raise MetricsError(f"no rule named {name!r}")
            del self._rules[name]
            del self._states[name]

    def rules(self) -> list[SloRule]:
        with self._lock:
            return list(self._rules.values())

    # -- evaluation ----------------------------------------------------------

    def _check(
        self, rule: SloRule, now: float
    ) -> tuple[bool, float | None, float]:
        """``(breached, observed value, threshold)`` for one rule."""
        tsdb = self.timeseries
        if rule.kind == "latency_quantile_ceiling":
            assert rule.metric is not None and rule.ceiling is not None
            count = tsdb.window_count(rule.metric, rule.window_s)
            value = tsdb.window_quantile(
                rule.metric, rule.quantile, rule.window_s
            )
            breached = (
                value is not None
                and count >= rule.min_count
                and value > rule.ceiling
            )
            return breached, value, rule.ceiling
        if rule.kind == "hit_rate_floor":
            assert rule.hits and rule.misses and rule.floor is not None
            hits = tsdb.counter_delta(rule.hits, rule.window_s)
            misses = tsdb.counter_delta(rule.misses, rule.window_s)
            total = hits + misses
            value = hits / total if total > 0 else None
            breached = (
                value is not None
                and total >= rule.min_count
                and value < rule.floor
            )
            return breached, value, rule.floor
        if rule.kind == "gauge_ceiling":
            assert rule.metric is not None and rule.ceiling is not None
            series = tsdb.gauge_series(rule.metric)
            if not series:
                return False, None, rule.ceiling
            value = series[-1][1]
            if value <= rule.ceiling:
                return False, value, rule.ceiling
            # sustained-for: how long since the gauge last satisfied the
            # ceiling (or since the first sample, when it never did)
            ok_at = series[0][0]
            for t, sample in series:
                if sample <= rule.ceiling:
                    ok_at = t
            sustained = now - ok_at
            return sustained >= rule.for_s, value, rule.ceiling
        # burn_rate
        assert rule.bad and rule.total
        budget = max(1e-9, 1.0 - rule.objective)

        def burn(window_s: float) -> float | None:
            bad = tsdb.counter_delta(rule.bad, window_s)  # type: ignore[arg-type]
            total = tsdb.counter_delta(rule.total, window_s)  # type: ignore[arg-type]
            if total < rule.min_count:
                return None
            return (bad / total) / budget

        short = burn(rule.window_s)
        long = burn(rule.long_window_s)
        breached = (
            short is not None
            and long is not None
            and short > rule.factor
            and long > rule.factor
        )
        return breached, short, rule.factor

    def _link_slowlog(self, rule: SloRule, now: float) -> dict:
        """Fingerprints captured inside the breached window, for the log."""
        if self.slowlog is None:
            return {}
        cutoff = now - rule.window_s
        fingerprints: list[str] = []
        for entry in reversed(self.slowlog.entries()):
            if entry.captured_at < cutoff:
                continue
            if entry.fingerprint not in fingerprints:
                fingerprints.append(entry.fingerprint)
            if len(fingerprints) >= MAX_LINKED_FINGERPRINTS:
                break
        if not fingerprints:
            return {"note": "slowlog ring empty in window"}
        return {"fingerprints": fingerprints}

    def evaluate(
        self, point: TimePoint | None = None, now: float | None = None
    ) -> list[dict]:
        """Evaluate every rule; returns the transitions made this pass.

        Safe to call from the sampler hook (it passes the fresh
        :class:`TimePoint`) or directly with ``now`` for tests.
        """
        if now is None:
            now = point.t if point is not None else time.time()
        transitions: list[dict] = []
        with self._lock:
            rules = list(self._rules.items())
        for name, rule in rules:
            breached, value, threshold = self._check(rule, now)
            with self._lock:
                state = self._states.get(name)
                if state is None:  # removed mid-pass
                    continue
                state.last_value = value
                if breached == state.firing:
                    continue
                state.firing = breached
                event = {
                    "rule": name,
                    "kind": rule.kind,
                    "severity": rule.severity,
                    "state": "firing" if breached else "resolved",
                    "at": now,
                    "value": value,
                    "threshold": threshold,
                }
                if breached:
                    state.since = now
                    state.firings += 1
                    if rule.kind == "latency_quantile_ceiling":
                        event.update(self._link_slowlog(rule, now))
                else:
                    event["fired_at"] = state.since
                    state.since = None
                self._events.append(event)
                transitions.append(event)
        with self._lock:
            self._evaluations += 1
        return transitions

    # -- reading -------------------------------------------------------------

    @property
    def evaluations(self) -> int:
        with self._lock:
            return self._evaluations

    def firing(self) -> list[dict]:
        """Currently-firing rules, as JSON-able dicts."""
        with self._lock:
            out = []
            for name, state in self._states.items():
                if not state.firing:
                    continue
                rule = self._rules[name]
                out.append(
                    {
                        "rule": name,
                        "kind": rule.kind,
                        "severity": rule.severity,
                        "since": state.since,
                        "value": state.last_value,
                    }
                )
            return out

    def firing_count(self) -> int:
        with self._lock:
            return sum(1 for s in self._states.values() if s.firing)

    def firings(self, rule: str) -> int:
        """How many times one rule has transitioned to firing, ever."""
        with self._lock:
            state = self._states.get(rule)
            return state.firings if state is not None else 0

    def events(self) -> list[dict]:
        """The alert log (firing/resolved transitions), oldest first."""
        with self._lock:
            return [dict(event) for event in self._events]

    def to_dict(self) -> dict:
        """The ``/alerts`` JSON body."""
        with self._lock:
            rules = [rule.to_dict() for rule in self._rules.values()]
        return {
            "firing": self.firing(),
            "events": self.events(),
            "rules": rules,
            "evaluations": self.evaluations,
        }
