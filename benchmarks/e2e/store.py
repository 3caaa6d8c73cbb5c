"""Set-up and tear-down of the store each workload runs against.

Everything under ``src/`` is imported lazily, inside the timed set-up,
so ``setup_s`` covers what a fresh process pays before its first op:
importing the program, generating Data Set 1's x100 cube, loading it
(``OlapEngine.load_cube`` with the arguments of
``repro.bench.harness.build_cube_engine`` — spelled out here only so the
oracle can share the generated rows instead of generating them twice),
and starting the service / HTTP server the workload talks to.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import time
from dataclasses import dataclass, field

from benchmarks.e2e import calibration
from benchmarks.e2e.oracle import Cells

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, "out")
MODEL_PATH = os.path.join(HERE, "model.json")

#: bytes of one fact record (4 x int32 key + int64 measure), the
#: denominator of ``space_amp``
FACT_RECORD_BYTES = 24

#: reference-kernel timings taken before, and again after, a build
SETUP_KERNEL_SAMPLES = 30

#: which physical designs and services each workload needs
_NEEDS = {
    "scan_cold": {"backends": ("array",), "wal": False},
    "select_cold": {"backends": ("array", "relational"), "wal": False},
    "serve_rw": {"backends": ("array",), "wal": True},
    "api_replay": {"backends": ("array",), "wal": True},
}


def scratch_dir() -> str:
    """``out/``: the only place the benchmark writes.  ``tempfile`` is
    pointed here too, because shard workers and the WAL ask it for
    directories and the run may not touch anything outside its checkout."""
    os.makedirs(OUT_DIR, exist_ok=True)
    tempfile.tempdir = OUT_DIR
    os.environ["TMPDIR"] = OUT_DIR
    return OUT_DIR


@dataclass
class Stack:
    """One built store plus whatever serves it."""

    workload: str
    scale: str
    config: object
    engine: object
    cells: Cells
    service: object = None
    endpoint: object = None
    server: object = None
    wal_dir: str | None = None
    image_path: str | None = None
    #: seconds per set-up segment: import, generate, load, start
    timings: dict = field(default_factory=dict)
    #: the host's speed while the store was built (1.0 = reference)
    slowdown: float = 1.0
    #: set once the durability check has dropped the live log handle
    abandoned: bool = False

    @property
    def setup_s(self) -> float:
        """Set-up time at reference host speed."""
        return sum(self.timings.values()) / self.slowdown

    @property
    def cube(self) -> str:
        return self.config.name

    def stored_bytes(self) -> int:
        """Simulated-disk bytes in use plus the log's bytes."""
        db = self.engine.db
        wal = db.wal.size_bytes() if db.wal is not None else 0
        return db.disk.used_bytes() + wal

    def space_amp(self) -> float:
        return self.stored_bytes() / (self.cells.n_rows * FACT_RECORD_BYTES)

    def start_serving(self) -> None:
        """Start the service (and, for ``api_replay``, the HTTP server)."""
        from repro.serve import QueryService, ServiceConfig

        self.service = QueryService(self.engine, ServiceConfig(max_workers=1))
        if self.workload == "api_replay":
            from repro.api.model import load_model
            from repro.api.server import ApiEndpoint, ApiServer

            model = load_model(MODEL_PATH, scale=self.scale)
            self.endpoint = ApiEndpoint(self.engine, self.service, model)
            self.server = ApiServer(self.endpoint).start()

    def stop_serving(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None
        if self.endpoint is not None:
            self.endpoint.close()
            self.endpoint = None
        if self.service is not None:
            self.service.close()
            self.service = None

    def close(self) -> None:
        self.stop_serving()
        self.engine.close_shards()
        if not self.abandoned:
            self.engine.db.close()
        if self.wal_dir is not None:
            shutil.rmtree(self.wal_dir, ignore_errors=True)


def setup(workload: str, scale: str) -> Stack:
    """Build the store for ``workload``; every segment is timed."""
    needs = _NEEDS[workload]
    clock = time.perf_counter
    kernel_s = [calibration.sample() for _ in range(SETUP_KERNEL_SAMPLES)]
    t0 = clock()
    from repro.bench.harness import bench_settings
    from repro.data.datasets import dataset1
    from repro.data.generator import (
        cube_schema_for,
        generate_dimension_rows,
        generate_fact_rows,
    )
    from repro.olap.engine import OlapEngine

    t1 = clock()
    config = dataset1(scale)[1]  # the x100 cube
    settings = bench_settings(scale)
    dimension_rows = generate_dimension_rows(config)
    fact_rows = generate_fact_rows(config)
    t2 = clock()
    cells = Cells(
        config.dim_sizes, config.chunk_shape, dimension_rows, fact_rows
    )
    t3 = clock()  # t2..t3 is the oracle's own conversion: not set-up
    wal_dir = (
        tempfile.mkdtemp(prefix=f"wal-{workload}-", dir=scratch_dir())
        if needs["wal"]
        else None
    )
    engine = OlapEngine(
        page_size=settings.page_size,
        pool_bytes=settings.pool_bytes,
        disk_model=settings.disk_model,
        wal_dir=wal_dir,
    )
    relational = "relational" in needs["backends"]
    engine.load_cube(
        cube_schema_for(config),
        dimension_rows,
        fact_rows,
        chunk_shape=config.chunk_shape,
        codec="chunk-offset",
        backends=needs["backends"],
        bitmap_attrs=(
            [(f"dim{d}", f"h{d}1") for d in range(config.ndim)]
            if relational
            else "all"
        ),
    )
    del fact_rows
    t4 = clock()
    stack = Stack(
        workload=workload,
        scale=scale,
        config=config,
        engine=engine,
        cells=cells,
        wal_dir=wal_dir,
    )
    if wal_dir is not None:
        # restart = this image + the log written after it
        stack.image_path = engine.db.checkpoint()
        stack.start_serving()
    t5 = clock()
    stack.timings = {
        "import": t1 - t0,
        "generate": t2 - t1,
        "load": t4 - t3,
        "start": t5 - t4,
    }
    kernel_s += [calibration.sample() for _ in range(SETUP_KERNEL_SAMPLES)]
    stack.slowdown = calibration.slowdown(kernel_s)
    return stack


def lost_writes(stack: Stack, expected: dict) -> list[tuple]:
    """The durability check: reopen the store from the checkpoint image
    plus the log, as a restarted process would, and return every
    ``keys`` whose acknowledged value is not what a read returns.

    The live log handle is dropped without a final sync first
    (``close(sync=False)`` models a process that simply exited), so only
    bytes already fsynced at a commit can be replayed.
    """
    from repro.data.generator import cube_schema_for
    from repro.olap.engine import OlapEngine
    from repro.relational.catalog import Database

    stack.stop_serving()
    old = stack.engine.db
    old.wal.close(sync=False)
    stack.abandoned = True
    db = Database.open(
        stack.image_path,
        wal_dir=stack.wal_dir,
        pool_bytes=old.pool.capacity_frames * old.disk.page_size,
        disk_model=old.disk.model,
    )
    try:
        engine = OlapEngine(db=db)
        state = engine.attach_cube(cube_schema_for(stack.config))
        lost = []
        for keys, value in expected.items():
            cell = state.array.get_cell(keys)
            if cell is None or int(cell[0]) != value:
                lost.append(keys)
        return lost
    finally:
        db.close()
