"""Canonical query fingerprints for the result cache.

Two :class:`~repro.olap.query.ConsolidationQuery` objects that must
return identical rows get identical fingerprints: selections are ANDed,
so their order is canonicalized away, as is the order of values inside
an IN-list.  Everything that *does* change the answer — the group-by
order (it fixes the output column order), the aggregate, the measure
projection and the backend — stays significant.

The one execution setting that names an evaluation is the requested
backend, which the fingerprint takes beside the query.
"""

from __future__ import annotations

import hashlib

from repro.olap.query import ConsolidationQuery, SelectionPredicate


def _selection_token(sel: SelectionPredicate) -> str:
    if sel.is_range:
        body = f"between:{sel.low!r}:{sel.high!r}"
    else:
        body = "in:" + ",".join(sorted(repr(v) for v in sel.values))
    return f"{sel.dimension}.{sel.attribute}|{body}"


def query_fingerprint(query: ConsolidationQuery, backend: str = "auto") -> str:
    """Hex digest identifying one evaluation of ``query`` on ``backend``."""
    parts = [
        f"cube={query.cube}",
        f"backend={backend}",
        "group_by=" + ";".join(f"{d}.{a}" for d, a in query.group_by),
        "selections=" + ";".join(
            sorted(_selection_token(s) for s in query.selections)
        ),
        f"aggregate={query.aggregate}",
        "measures=" + (
            ",".join(query.measures) if query.measures is not None else "*"
        ),
    ]
    digest = hashlib.sha256("\n".join(parts).encode("utf-8")).hexdigest()
    return digest[:32]
