"""B-tree lookups equal a sorted-list model and read what a node decode reads.

``search``, ``range_search`` and ``in`` walk a node's encoded entries and
compare sort keys (a ``str`` key's raw UTF-8 bytes, an ``int`` key's
unpacked int64, a tuple key's decoded tuple) instead of decoding the
node.  On pages small enough that trees are several levels deep and a
run of duplicate keys spans leaf splits, every lookup must answer as the
sorted list of the inserted entries does — absent keys, open and closed
bounds included — and must read the same pages in the same order as a
walk that decodes each node with ``_Node.decode``: twin volumes, one
asked through the tree and one walked by the reference, must move equal
pool and disk counter bags.  The ``str`` keys mix one-, two-, three- and
four-byte UTF-8 characters, so a byte comparison that mis-orders
non-ASCII bytes (signed bytes, say) answers wrongly here.
"""

from bisect import bisect_left

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.index import BTree
from repro.index.btree import _META, _NO_PAGE, _Node
from repro.storage import BufferPool, FileManager, SimulatedDisk

words = st.text(alphabet=["a", "z", "é", "\ue000", "\U0001F600"], max_size=3)
edges = st.sampled_from([-(2**63), -(2**63) + 1, -1, 0, 1, 2**63 - 2, 2**63 - 1])
ints = st.one_of(st.integers(-4, 4), edges)
composites = st.tuples(st.integers(-2, 2), st.text(alphabet="aé", max_size=2))


def volume(page_size: int):
    """A fresh volume whose pool holds 6 pages, so lookups evict and miss."""
    return FileManager(BufferPool(SimulatedDisk(page_size=page_size), 6 * page_size))


def bags(fm: FileManager) -> tuple[dict, dict]:
    return fm.pool.counters.snapshot(), fm.pool.disk.counters.snapshot()


def moved(before: dict, after: dict) -> dict:
    return {k: after[k] - before.get(k, 0) for k in after if after[k] != before.get(k, 0)}


def reference_leaf(pfile, root: int, kind: int, key) -> _Node:
    """The old descent: decode each node, bisect its keys (None: leftmost);
    the leaf it reaches."""
    node = _Node.decode(pfile.read(root), kind)
    while not node.is_leaf:
        logical = node.children[0 if key is None else bisect_left(node.keys, key)]
        node = _Node.decode(pfile.read(logical), kind)
    return node


def reference_walk(pfile, root: int, kind: int, low, high) -> None:
    """Read the pages a lookup of ``low <= key <= high`` reads, decoding
    every node it reads: the descent's leaf is walked as the descent
    read it, each later leaf read once."""
    node = reference_leaf(pfile, root, kind, low)
    while True:
        for key in node.keys:
            if low is not None and key < low:
                continue
            if high is not None and key > high:
                return
        if node.next_leaf == _NO_PAGE:
            return
        node = _Node.decode(pfile.read(node.next_leaf), kind)


def model_range(model, low, high):
    return [
        (k, v)
        for k, v in model
        if (low is None or low <= k) and (high is None or k <= high)
    ]


@st.composite
def cases(draw):
    keys = draw(st.sampled_from([words, ints, composites]))
    entries = draw(
        st.lists(st.tuples(keys, st.integers(-3, 3)), min_size=1, max_size=120)
    )
    inserted = [k for k, _ in entries]
    probe = st.one_of(st.sampled_from(inserted), keys)
    bound = st.one_of(st.none(), probe)
    ops = draw(
        st.lists(
            st.one_of(
                st.tuples(st.just("search"), probe, st.none()),
                st.tuples(st.just("in"), probe, st.none()),
                st.tuples(st.just("range"), bound, bound),
            ),
            min_size=1,
            max_size=12,
        )
    )
    return entries, ops, draw(st.sampled_from([128, 256]))


def assert_lookups_match(entries, ops, page_size):
    twins = [volume(page_size) for _ in range(2)]
    pfiles = [fm.create("idx") for fm in twins]
    for pfile in pfiles:
        BTree(pfile).insert_many(entries)
    tree, pfile = BTree(pfiles[0]), pfiles[1]  # each reads its meta once
    root, _, kind = _META.unpack_from(pfile.get_meta(), 0)
    model = sorted(entries)
    for op, a, b in ops:
        seen = [bags(fm) for fm in twins]
        if op == "search":
            got, want = tree.search(a), [v for k, v in model if k == a]
            low = high = a
        elif op == "in":
            got, want = a in tree, any(k == a for k, _ in model)
            low = high = a
        else:
            got, want = list(tree.range_search(a, b)), model_range(model, a, b)
            low, high = a, b
        assert got == want, (op, a, b)
        reference_walk(pfile, root, kind, low, high)
        (pool_a, disk_a), (pool_b, disk_b) = [
            tuple(moved(*pair) for pair in zip(before, bags(fm)))
            for before, fm in zip(seen, twins)
        ]
        io_a, io_b = disk_a.pop("sim_io_s", 0.0), disk_b.pop("sim_io_s", 0.0)
        assert pool_a == pool_b, (op, a, b)
        assert disk_a == disk_b, (op, a, b)
        assert io_a == pytest.approx(io_b, rel=1e-9), (op, a, b)


@settings(max_examples=80, deadline=None)
@given(cases())
@example(
    (
        [(k, i % 3) for i, k in enumerate(["z", "é", "\U0001F600", "a", "\ue000"] * 12)],
        [("search", "é", None), ("search", "\U0001F600", None), ("in", "z", None),
         ("range", "z", "\ue000"), ("range", None, "é"), ("search", "zz", None)],
        128,
    )
)
def test_lookups_match_the_model_and_the_decode_walk(case):
    assert_lookups_match(*case)
