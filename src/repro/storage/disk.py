"""Simulated paged disk with a 1997-era I/O cost model.

The paper ran on a 2 GB Quantum Fireball behind a 16 MB buffer pool and
flushed all caches before each query, so its figures are dominated by
how many pages each algorithm touches and whether those touches are
sequential.  We reproduce that with a :class:`SimulatedDisk` that stores
page images in memory and *accounts* (never sleeps) the time a 1997
disk would have spent:

- a seek + rotational delay whenever the accessed page does not
  immediately follow the previously accessed page, and
- a transfer time proportional to the page size.

Simulated seconds accumulate in the disk's :class:`~repro.util.stats.Counters`
under ``sim_io_s`` next to raw ``pages_read`` / ``pages_written`` counts.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import PageError
from repro.util.stats import Counters

DEFAULT_PAGE_SIZE = 8192


@dataclass(frozen=True)
class DiskModel:
    """Cost parameters of the simulated disk.

    Defaults approximate a 1997 Quantum Fireball: ~10 ms average
    seek + rotational latency and ~10 MB/s sustained transfer.

    A short *forward* skip (at most ``near_window_pages`` pages) is
    charged as reading through the skipped pages rather than a full
    seek — real disks spin past nearby sectors, which is what makes an
    ascending-position tuple fetch (§4.5) behave like a partial scan.
    """

    seek_ms: float = 10.0
    transfer_mb_per_s: float = 10.0
    near_window_pages: int = 32

    def access_seconds(self, nbytes: int, jump_pages: int) -> float:
        """Simulated seconds for one page access.

        ``jump_pages`` is the distance from the previously accessed
        page (1 = sequential; anything else moved the arm).
        """
        transfer = nbytes / (self.transfer_mb_per_s * 1024 * 1024)
        if jump_pages == 1:
            return transfer
        if 1 < jump_pages <= self.near_window_pages:
            return transfer * jump_pages  # read through the gap
        return transfer + self.seek_ms / 1000.0


class SimulatedDisk:
    """An in-memory volume of fixed-size pages with I/O accounting.

    Page ids are dense non-negative integers handed out by
    :meth:`allocate`; consecutive allocations return consecutive ids, so
    structures that allocate their pages in one burst are laid out
    sequentially — exactly the property the paper relies on for chunk
    files and fact-file extents.
    """

    def __init__(
        self,
        page_size: int = DEFAULT_PAGE_SIZE,
        model: DiskModel | None = None,
    ):
        if page_size <= 0:
            raise PageError(f"page size must be positive, got {page_size}")
        self.page_size = page_size
        self.model = model or DiskModel()
        self.counters = Counters()
        self._pages: list[bytes | None] = []
        self._last_accessed: int | None = None

    # -- allocation -------------------------------------------------------

    @property
    def num_pages(self) -> int:
        """Number of pages allocated so far."""
        return len(self._pages)

    def allocate(self, count: int = 1) -> int:
        """Allocate ``count`` contiguous pages; return the first page id."""
        if count <= 0:
            raise PageError(f"allocation count must be positive, got {count}")
        first = len(self._pages)
        self._pages.extend([None] * count)
        return first

    def _check(self, page_id: int) -> None:
        if not 0 <= page_id < len(self._pages):
            raise PageError(
                f"page id {page_id} out of range [0, {len(self._pages)})"
            )

    # -- I/O ---------------------------------------------------------------

    def _account(self, page_id: int, kind: str, n: int = 1) -> None:
        """Charge ``n`` consecutive page accesses starting at ``page_id``:
        the first by the jump rule, the rest as sequential transfers."""
        if self._last_accessed is None:
            jump = 0  # first access after park(): a full seek
        else:
            jump = page_id - self._last_accessed
        seconds = self.model.access_seconds(self.page_size, jump)
        if n > 1:
            seconds += (n - 1) * self.model.access_seconds(self.page_size, 1)
        amounts = {"sim_io_s": seconds}
        if jump != 1:
            amounts["seeks"] = 1.0
        amounts[f"pages_{kind}"] = n
        amounts[f"bytes_{kind}"] = n * self.page_size
        self.counters.add_many(amounts)
        self._last_accessed = page_id + n - 1

    def read_page(self, page_id: int) -> bytes:
        """Read one page image (zero-filled if never written)."""
        self._check(page_id)
        self._account(page_id, "read")
        image = self._pages[page_id]
        if image is None:
            return bytes(self.page_size)
        return image

    def read_run(self, first: int, n: int) -> list[bytes]:
        """Read ``n`` consecutive page images in one accounted access.

        Costs what ``n`` sequential :meth:`read_page` calls cost (same
        counts, same arm position afterwards; ``sim_io_s`` differs only
        in rounding: one multiplication instead of ``n - 1`` additions)
        and returns the stored images themselves, not copies.
        """
        if n <= 0:
            raise PageError(f"run length must be positive, got {n}")
        self._check(first)
        self._check(first + n - 1)
        self._account(first, "read", n)
        return [
            bytes(self.page_size) if image is None else image
            for image in self._pages[first : first + n]
        ]

    def write_page(self, page_id: int, image: bytes) -> None:
        """Write one full page image."""
        self._check(page_id)
        if len(image) != self.page_size:
            raise PageError(
                f"page image is {len(image)} bytes, page size is "
                f"{self.page_size}"
            )
        self._account(page_id, "written")
        self._pages[page_id] = bytes(image)

    # -- statistics ---------------------------------------------------------

    def park(self) -> None:
        """Forget the arm position (query boundary): the next access
        pays a full seek wherever the previous query left the arm."""
        self._last_accessed = None

    def used_bytes(self) -> int:
        """Total bytes of allocated pages (the on-disk footprint)."""
        return len(self._pages) * self.page_size

    # -- volume image persistence ---------------------------------------------

    _IMAGE_MAGIC = b"RPRODSK1"

    def save(self, path: str) -> None:
        """Write the whole volume image to a real file.

        Together with :meth:`load` and :meth:`Database.attach
        <repro.relational.catalog.Database.attach>` this lets a built
        database outlive the process.
        """
        import os as _os
        import struct as _struct

        with open(path, "wb") as handle:
            handle.write(self._IMAGE_MAGIC)
            handle.write(_struct.pack("<iq", self.page_size, len(self._pages)))
            zero = bytes(self.page_size)
            for image in self._pages:
                handle.write(zero if image is None else image)
            handle.flush()
            _os.fsync(handle.fileno())

    @classmethod
    def load(cls, path: str, model: DiskModel | None = None) -> "SimulatedDisk":
        """Re-open a volume image written by :meth:`save`."""
        import struct as _struct

        with open(path, "rb") as handle:
            magic = handle.read(len(cls._IMAGE_MAGIC))
            if magic != cls._IMAGE_MAGIC:
                raise PageError(f"{path!r} is not a volume image")
            header = handle.read(12)
            if len(header) != 12:
                raise PageError(f"{path!r} volume image header is truncated")
            page_size, num_pages = _struct.unpack("<iq", header)
            if page_size <= 0 or num_pages < 0:
                raise PageError(
                    f"{path!r} volume image header is corrupt "
                    f"(page_size={page_size}, num_pages={num_pages})"
                )
            disk = cls(page_size=page_size, model=model)
            if num_pages:
                disk.allocate(num_pages)
            for page_id in range(num_pages):
                image = handle.read(page_size)
                if len(image) != page_size:
                    raise PageError(
                        f"{path!r} volume image is truncated at page "
                        f"{page_id} (got {len(image)} of {page_size} bytes)"
                    )
                disk._pages[page_id] = image
        return disk
