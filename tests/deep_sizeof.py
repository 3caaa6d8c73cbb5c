"""A full object walk: the reference the stores' shape charges are
checked against.

No store measures its entries this way: the result cache, the trace
store and the plan cache charge an entry from its shape, without
visiting every object in it.  ``tests/obs/test_shape_charges.py`` holds
each charge to this walk.
"""

from __future__ import annotations

import sys
from collections import deque

#: fallback size for objects ``sys.getsizeof`` cannot measure.
_DEFAULT_OBJECT_BYTES = 64


def deep_sizeof(obj: object) -> int:
    """Recursively measure ``obj`` in bytes, cycle- and share-safe.

    Containers (dict / list / tuple / set / deque) descend into their
    elements; plain objects descend into ``__dict__``.  Anything with a
    numeric ``.nbytes`` (numpy arrays and scalars) is charged its
    buffer size directly instead of being walked.  Shared sub-objects
    are charged once (id-memoised), so summing two entries that alias
    one array never double-counts it.
    """
    total = 0
    seen: set[int] = set()
    stack: list[object] = [obj]
    while stack:
        item = stack.pop()
        if id(item) in seen:
            continue
        seen.add(id(item))
        nbytes = getattr(item, "nbytes", None)
        if isinstance(nbytes, (int, float)) and not isinstance(item, memoryview):
            total += int(nbytes)
            continue
        try:
            total += sys.getsizeof(item)
        except TypeError:  # pragma: no cover - exotic C extension types
            total += _DEFAULT_OBJECT_BYTES
        if isinstance(item, dict):
            stack.extend(item.keys())
            stack.extend(item.values())
        elif isinstance(item, (list, tuple, set, frozenset, deque)):
            stack.extend(item)
        elif hasattr(item, "__dict__"):
            stack.extend(vars(item).values())
    return total
