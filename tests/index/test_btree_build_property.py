"""``BTree.build`` writes the volume an ``insert`` per entry writes.

``build`` runs the insert loop against nodes held in memory and writes
each node once, so after a flush both volumes must be the same page for
page: node images, the logical → physical page map and the meta (root,
entry count, key kind) in the file's header page.  Keys are ints, strs
or tuples, with duplicate keys and duplicate entries, in any order, on
page sizes that split after a handful of entries.  The named cases are
the key counts at the narrow index dtypes' edges, 255/256 and
32 767/32 768, in the loader's order (index order, ascending values).
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import BTreeError
from repro.index import BTree
from repro.storage import BufferPool, FileManager, SimulatedDisk


def volume(page_size: int) -> FileManager:
    """A fresh volume whose pool holds 8 pages, so the loop evicts."""
    return FileManager(BufferPool(SimulatedDisk(page_size=page_size), 8 * page_size))


def image(fm: FileManager) -> list[bytes]:
    """Every page of the volume, after a flush."""
    fm.pool.flush_all()
    disk = fm.pool.disk
    return [disk.read_page(page) for page in range(disk.num_pages)]


def inserted(fm: FileManager, entries) -> BTree:
    tree = BTree.create(fm, "idx")
    for key, value in entries:
        tree.insert(key, value)
    return tree


def assert_same_volume(entries, page_size: int) -> None:
    loop_fm, build_fm = volume(page_size), volume(page_size)
    loop = inserted(loop_fm, entries)
    built = BTree.build(build_fm, "idx", iter(entries))
    assert image(build_fm) == image(loop_fm)
    assert len(built) == len(loop) == len(entries)
    assert list(built.items()) == list(loop.items())
    built.validate()


small_ints = st.integers(-40, 40)
words = st.text(alphabet="abcxyzé", max_size=12)
composites = st.tuples(st.integers(-5, 5), st.text(alphabet="ab", max_size=3))


@settings(max_examples=60, deadline=None)
@given(
    keys=st.one_of(
        st.lists(small_ints, max_size=300),
        st.lists(words, max_size=200),
        st.lists(composites, max_size=200),
    ),
    data=st.data(),
    page_size=st.sampled_from([128, 256, 512]),
)
def test_build_writes_what_the_insert_loop_writes(keys, data, page_size):
    # values repeat too, so some entries are exact duplicates
    values = data.draw(
        st.lists(st.integers(-3, 3), min_size=len(keys), max_size=len(keys))
    )
    assert_same_volume(list(zip(keys, values)), page_size)


@pytest.mark.parametrize("count", [255, 256])
def test_index_dtype_edges_255_256(count):
    assert_same_volume([(k, k) for k in range(count)], 256)
    labels = [f"L{p % 97:03d}" for p in range(count)]  # an attribute tree's shape
    assert_same_volume(list(zip(labels, range(count))), 256)


def test_index_dtype_edges_32767_32768():
    """One insert loop serves both counts: its volume after 32 767
    inserts is the 32 767-key case's."""
    entries = [(3 * k - 5, k) for k in range(32768)]
    loop_fm = volume(512)
    loop = inserted(loop_fm, entries[:-1])
    before = image(loop_fm)
    loop.insert(*entries[-1])
    after = image(loop_fm)
    for count, expected in ((32767, before), (32768, after)):
        build_fm = volume(512)
        built = BTree.build(build_fm, "idx", iter(entries[:count]))
        assert image(build_fm) == expected, count
        assert len(built) == count


def test_a_failing_entry_leaves_the_entries_before_it():
    """An entry of the wrong key kind raises from ``build`` as from the
    loop, and the volume holds the entries that went in before it."""
    entries = [(k, k) for k in range(40)] + [("forty", 40), (41, 41)]
    loop_fm, build_fm = volume(128), volume(128)
    loop = BTree.create(loop_fm, "idx")
    with pytest.raises(BTreeError):
        for key, value in entries:
            loop.insert(key, value)
    with pytest.raises(BTreeError):
        BTree.build(build_fm, "idx", entries)
    assert image(build_fm) == image(loop_fm)


@example(entries=[(5, 1)] * 30 + [(4, 2)] * 30)
@settings(max_examples=30, deadline=None)
@given(
    entries=st.lists(st.tuples(st.integers(0, 6), st.integers(-2, 2)), max_size=150)
)
def test_insert_many_on_a_grown_tree_writes_what_the_loop_writes(entries):
    """``insert_many`` on a tree that already holds entries: the nodes it
    reads come off the pages, and are written back once."""
    half = len(entries) // 2
    loop_fm, many_fm = volume(128), volume(128)
    inserted(loop_fm, entries)
    tree = inserted(many_fm, entries[:half])
    tree.insert_many(entries[half:])
    assert image(many_fm) == image(loop_fm)
