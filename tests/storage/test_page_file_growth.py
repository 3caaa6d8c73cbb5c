"""A page file's header is written a field and an entry at a time.

Appending a page writes the page count; adding an extent writes its one
directory entry, in the header page or in an overflow page chained on
when the entry is that page's first.  Grown that way on pages small
enough that the directory spills over several overflow pages, the
header and every overflow page must hold exactly the images a
from-scratch encoding of the directory writes (the encoding below,
from the on-disk format), and the page ids must be allocated in the
order such a growth allocates them: each extent, then the overflow page
its entry opened.
"""

import struct

import pytest

from repro.storage import BufferPool, FileManager, SimulatedDisk

HEADER = struct.Struct("<IqIIIq")  # magic, npages, extent pages, extents, meta length, first overflow
ENTRY = struct.Struct("<q")
MAGIC = 0x50474649
NO_PAGE = -1


def meta_capacity(page_size):
    return min(2048, max(96, page_size // 4))


def from_scratch(page_size, header_id, npages, extent_pages, meta):
    """Every header and overflow page image of a file whose header page is
    ``header_id`` and which grew to ``npages`` pages from nothing, each
    page id allocated in growth order; ``{page_id: image}``."""
    in_header = (page_size - HEADER.size - meta_capacity(page_size)) // ENTRY.size
    per_page = (page_size - ENTRY.size) // ENTRY.size
    n_extents = -(-npages // extent_pages)
    extents, dir_pages = [], []
    next_id = header_id + 1
    for extent in range(n_extents):
        extents.append(next_id)
        next_id += extent_pages
        if extent >= in_header and (extent - in_header) % per_page == 0:
            dir_pages.append(next_id)
            next_id += 1
    header = bytearray(page_size)
    HEADER.pack_into(
        header, 0, MAGIC, npages, extent_pages, n_extents, len(meta),
        dir_pages[0] if dir_pages else NO_PAGE,
    )
    for i, first in enumerate(extents[:in_header]):
        ENTRY.pack_into(header, HEADER.size + i * ENTRY.size, first)
    start = page_size - meta_capacity(page_size)
    header[start : start + len(meta)] = meta
    images = {header_id: bytes(header)}
    overflow = extents[in_header:]
    for page_no, page_id in enumerate(dir_pages):
        image = bytearray(page_size)
        chained = dir_pages[page_no + 1] if page_no + 1 < len(dir_pages) else NO_PAGE
        ENTRY.pack_into(image, 0, chained)
        for i, first in enumerate(overflow[page_no * per_page : (page_no + 1) * per_page]):
            ENTRY.pack_into(image, ENTRY.size + i * ENTRY.size, first)
        images[page_id] = bytes(image)
    return extents, images


@pytest.mark.parametrize("page_size", [128, 256, 512])
@pytest.mark.parametrize("extent_pages", [1, 3])
def test_grown_header_is_the_from_scratch_one(page_size, extent_pages):
    pool = BufferPool(SimulatedDisk(page_size=page_size), capacity_bytes=4 * page_size)
    fm = FileManager(pool)
    pfile = fm.create("f", extent_pages=extent_pages)
    in_header = (page_size - HEADER.size - meta_capacity(page_size)) // ENTRY.size
    per_page = (page_size - ENTRY.size) // ENTRY.size
    total = (in_header + 3 * per_page + 2) * extent_pages  # three full overflow pages, a fourth begun
    meta = b""
    for npages in range(1, total + 1):
        pfile.append_page()
        if npages % 17 == 0:
            meta = b"meta %d" % npages
            pfile.set_meta(meta)
        if npages % extent_pages == 1 or npages == total:
            extents, images = from_scratch(
                page_size, pfile.header_page_id, npages, extent_pages, meta
            )
            assert [pfile.page_id(e * extent_pages) for e in range(len(extents))] == extents
            for page_id, image in images.items():
                assert bytes(pool.get(page_id)) == image, (npages, page_id)
    assert len(images) == 5
    pool.flush_all()
    for page_id, image in images.items():
        assert pool.disk.read_page(page_id) == image
    reopened = fm.open("f")
    assert reopened.npages == total and reopened.get_meta() == meta
    assert [reopened.page_id(p) for p in range(total)] == [pfile.page_id(p) for p in range(total)]
