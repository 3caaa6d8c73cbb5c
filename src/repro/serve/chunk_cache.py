# Only the benchmark's span table names this path; ROADMAP item 1(i) deletes it.
from repro.storage.chunk_cache import ChunkCache  # noqa: F401
