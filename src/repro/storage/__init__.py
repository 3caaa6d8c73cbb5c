"""SHORE-like storage substrate.

The paper's systems (both the OLAP Array ADT and the relational
baselines) sit on the SHORE storage manager: a paged volume, a buffer
pool, large objects, and recovery.  This package is our Python
equivalent.  Every persistent byte of every structure in the library is
serialized onto pages of a :class:`~repro.storage.disk.SimulatedDisk`
and cached by a shared :class:`~repro.storage.buffer_pool.BufferPool`,
so storage sizes and I/O counts in the experiments are real measurements
rather than estimates.
"""

from repro.storage.disk import DiskModel, SimulatedDisk
from repro.storage.buffer_pool import BufferPool
from repro.storage.chunk_cache import ChunkCache
from repro.storage.page_file import FileManager, PageFile
from repro.storage.slotted_page import SlottedPage
from repro.storage.large_object import LargeObjectStore
from repro.storage.wal import WriteAheadLog, recover
from repro.storage.locks import LockManager
from repro.storage.crashpoints import (
    FaultPlan,
    active_plan,
    crash_point,
    fault_plan,
    register_crash_point,
    registered_crash_points,
)
from repro.storage.faults import FaultyDisk, FaultyWAL

__all__ = [
    "DiskModel",
    "SimulatedDisk",
    "BufferPool",
    "ChunkCache",
    "FileManager",
    "PageFile",
    "SlottedPage",
    "LargeObjectStore",
    "WriteAheadLog",
    "recover",
    "LockManager",
    "FaultPlan",
    "FaultyDisk",
    "FaultyWAL",
    "active_plan",
    "crash_point",
    "fault_plan",
    "register_crash_point",
    "registered_crash_points",
]
