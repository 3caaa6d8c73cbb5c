"""Exception hierarchy for the repro library.

Every error raised by the library derives from :class:`ReproError`, so
applications can catch one type at the boundary.  Subsystems raise the
most specific subclass that applies.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class TransientError(ReproError):
    """Mixin marking a failure that may succeed if simply retried.

    The serving layer's retry loop dispatches on this: an exception
    that is ``isinstance(exc, TransientError)`` is retried with capped
    exponential backoff before the cube is declared degraded.
    """


class PermanentError(ReproError):
    """Mixin marking a failure retrying cannot fix (corruption, bugs).

    The retry layer fails fast on these: the cube goes straight to
    degraded mode and the error propagates to the caller.
    """


class StorageError(ReproError):
    """Base class for storage-manager failures."""


class PageError(StorageError):
    """A page id was invalid or a page payload was malformed."""


class BufferPoolError(StorageError):
    """The buffer pool could not satisfy a request (e.g. all frames pinned)."""


class FileError(StorageError):
    """A page file or large object was missing or corrupt."""


class WALError(StorageError):
    """The write-ahead log was malformed or recovery failed."""


class TruncatedWALError(WALError):
    """A WAL record extends past the physical end of the log.

    Only a torn tail — an append cut short by a crash — produces this,
    so the open-time scan may safely discard the partial record.
    """


class CorruptWALError(WALError, PermanentError):
    """A WAL record's framing or CRC check failed.

    A tear removes bytes but never alters them, so a corrupt record
    that is not the final one means mid-log damage: committed data may
    follow it, and recovery must refuse to silently truncate.
    ``frame_end`` is the byte offset just past the record's frame when
    the framing itself was intact (CRC failure), else ``None``.
    """

    def __init__(self, message: str, frame_end: int | None = None):
        super().__init__(message)
        self.frame_end = frame_end


class TransientDiskError(StorageError, TransientError):
    """A disk access failed in a way a retry may fix (injected or real)."""


class FaultError(StorageError):
    """Fault-injection misuse (unknown crash point, bad plan)."""


class SimulatedCrash(StorageError):
    """An injected crash: the process 'died' at a registered crash point.

    Deliberately neither transient nor permanent — a crash is not an
    error to handle but a point after which only recovery may run.
    """


class IndexError_(ReproError):
    """Base class for index (B-tree / bitmap) failures.

    Named with a trailing underscore to avoid shadowing the builtin.
    """


class BTreeError(IndexError_):
    """B-tree structural invariant violation or bad operation."""


class BitmapError(IndexError_):
    """Bitmap index misuse (length mismatch, unknown attribute, ...)."""


class RelationalError(ReproError):
    """Base class for relational-layer failures."""


class SchemaError(RelationalError):
    """Schema definition or record/schema mismatch."""


class CatalogError(RelationalError):
    """Unknown or duplicate table / index names."""


class ArrayError(ReproError):
    """Base class for OLAP Array ADT failures."""


class ChunkError(ArrayError):
    """Chunk geometry violation or corrupt chunk payload."""


class CompressionError(ArrayError):
    """A chunk codec could not encode or decode a payload."""


class DimensionError(ArrayError):
    """Unknown dimension key, index out of range, or hierarchy misuse."""


class QueryError(ReproError):
    """Malformed OLAP query or unsupported query feature."""


class PlanError(QueryError):
    """The planner could not produce a plan for the requested backend."""


class SQLError(QueryError):
    """The SQL-subset parser rejected the statement."""


class DataGenError(ReproError):
    """Synthetic data generator was configured inconsistently."""


class MetricsError(ReproError):
    """Bad metrics-registry operation (duplicate or unknown source)."""


class ServeError(ReproError):
    """Base class for query-service failures."""


class AdmissionError(ServeError):
    """The service refused a query (queue full / shutting down)."""


class DegradedError(ServeError, TransientError):
    """The cube is in degraded mode: only cache hits are served.

    Transient by design — once ``recover_cube()`` has run, the same
    request will succeed, so clients may retry later.
    """


class RetryExhaustedError(ServeError, PermanentError):
    """Transient faults persisted through every retry attempt."""


class ApiError(ReproError):
    """Base class for HTTP query-API failures.

    Carries the HTTP ``status`` and a machine-readable ``kind`` so the
    server can render a structured 4xx body without string-matching
    messages.  Anything the client sent wrong — malformed JSON, unknown
    cube/dimension/measure, bad cut syntax, oversized bodies — must
    surface as this, never as a 500.
    """

    status = 400
    kind = "bad_request"

    def __init__(self, message: str, status: int | None = None):
        super().__init__(message)
        if status is not None:
            self.status = status


class ApiModelError(ApiError):
    """The logical model file is malformed or inconsistent."""

    status = 500
    kind = "model_error"


class ApiRequestError(ApiError):
    """The aggregate request itself is malformed (syntax, types)."""

    status = 400
    kind = "bad_request"


class ApiNotFoundError(ApiError):
    """Unknown route, cube, dimension, level, or measure."""

    status = 404
    kind = "not_found"


class ApiMethodError(ApiError):
    """An HTTP method the API does not serve (anything but GET/POST)."""

    status = 405
    kind = "method_not_allowed"


class ApiTooLargeError(ApiError):
    """The request body exceeds its size cap (413), or the request head
    a line or header-count limit (414, 431)."""

    status = 413
    kind = "too_large"


class ShardError(ReproError):
    """Base class for shard coordinator / worker failures."""


class ShardScatterError(ShardError, TransientError):
    """A scatter lost shards past the coordinator's re-scatter budget.

    Transient by design: worker processes are respawned lazily, so the
    serving layer's retry loop may re-run the whole query and the next
    scatter can succeed.
    """
