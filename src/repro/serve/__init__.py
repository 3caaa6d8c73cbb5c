"""Concurrent serving over the OLAP engine (the ROADMAP north star).

``repro.serve`` wraps the single-threaded :class:`~repro.olap.engine.
OlapEngine` for concurrent traffic: admission control on the calling
thread and an LRU result cache with generation-based invalidation; a
miss reads through the database's decoded-chunk cache.  See
:class:`QueryService`.
"""

from repro.serve.fingerprint import query_fingerprint
from repro.serve.result_cache import CacheEntry, ResultCache
from repro.serve.service import QueryService, ServiceConfig

__all__ = [
    "CacheEntry",
    "QueryService",
    "ResultCache",
    "ServiceConfig",
    "query_fingerprint",
]
