"""A paged B+tree with duplicate-key support.

The tree maps ``int`` or ``str`` keys to ``int64`` values and lives on
a :class:`~repro.storage.page_file.PageFile`, one node per page.  It is
used three ways in the reproduction:

- per-dimension key → array-index maps inside the OLAP Array ADT (§3.1),
- dimension attribute → array-index lists for the selection algorithm
  (§4.2, duplicates: many rows share one attribute value),
- value → bitmap-OID directories inside :class:`~repro.index.bitmap.BitmapIndex`.

Design notes:

- entries in a leaf are sorted by ``(key, value)`` so duplicate keys
  have deterministic order and ``delete(key, value)`` is exact;
- splits are size-based (a node splits when its serialization would
  overflow the page), so long string keys simply reduce fan-out;
- deletes are "lazy": the entry is removed but nodes never merge, the
  standard trade-off in systems whose workloads are append-mostly;
- :meth:`BTree.build` / :meth:`BTree.insert_many` run :meth:`BTree.insert`
  on nodes held in memory and write each node once: the pages one
  insert per entry writes, without a page decode and encode per entry.
  :meth:`BTree.bulk_load` packs sorted entries instead (85 % fill, a
  different shape);
- lookups (:meth:`BTree.search`, :meth:`BTree.range_search`, the descent
  of :meth:`BTree.delete`) never decode a whole node: one entry reader,
  :func:`_entries`, walks a node's bytes and hands each entry's *sort
  key* to a compare with the encoded target, and only the keys a lookup
  yields are decoded (once per run of equal keys).  A ``str`` key's sort
  key is its raw UTF-8 bytes: UTF-8 is built so that byte order is code
  point order, which is Python's ``str`` order, so a leaf sorted by
  ``str`` is sorted by bytes (a lone surrogate, the one ``str`` with no
  UTF-8 form, cannot be inserted).  An ``int`` key is its unpacked
  int64 and a tuple key its decoded tuple, whose encoding (little-endian
  ints, length-prefixed elements) does not sort bytewise.  Writes and
  :meth:`BTree.validate` decode nodes (:class:`_Node`).
"""

from __future__ import annotations

import struct
from bisect import bisect_left, bisect_right
from collections.abc import Iterator
from dataclasses import dataclass, field
from itertools import groupby
from operator import itemgetter

from repro.errors import BTreeError
from repro.storage.page_file import FileManager, PageFile

_NODE_HEADER = struct.Struct("<BHq")  # is_leaf, nkeys, next_leaf
_ENTRY_HEAD = struct.Struct("<H")  # key length
_VALUE = struct.Struct("<q")
_META = struct.Struct("<qqB")  # root logical page, entry count, key kind

_KIND_UNSET = 0
_KIND_INT = 1
_KIND_STR = 2
_KIND_TUPLE = 3

_NO_PAGE = -1

_ELEM_HEAD = struct.Struct("<BH")  # element kind, payload length


def _encode_key(key) -> tuple[int, bytes]:
    if isinstance(key, bool):
        raise BTreeError("unsupported key type bool")
    if isinstance(key, int):
        return _KIND_INT, _VALUE.pack(key)
    if isinstance(key, str):
        return _KIND_STR, key.encode("utf-8")
    if isinstance(key, tuple):
        # composite keys (the multi-attribute B-tree): a sequence of
        # int/str elements, compared lexicographically
        out = bytearray([len(key)])
        for element in key:
            kind, raw = _encode_key(element)
            if kind == _KIND_TUPLE:
                raise BTreeError("nested tuple keys are not supported")
            out += _ELEM_HEAD.pack(kind, len(raw))
            out += raw
        return _KIND_TUPLE, bytes(out)
    raise BTreeError(f"unsupported key type {type(key).__name__}")


def _sort_key(kind: int, key):
    """``key`` as :func:`_entries` yields the keys of a tree of ``kind``."""
    return key.encode("utf-8") if kind == _KIND_STR else key


def _entries(buf, kind: int) -> Iterator[tuple[object, int]]:
    """Yield ``(sort key, end)`` for each entry of the encoded node
    ``buf``, in key order, decoding nothing else: the entry's child page
    or value is the int64 at ``end``, and an internal node's leading
    child the int64 at ``_NODE_HEADER.size``.  The sort key orders as the
    decoded key does (see the module notes)."""
    is_leaf, nkeys, _ = _NODE_HEADER.unpack_from(buf, 0)
    offset = _NODE_HEADER.size if is_leaf else _NODE_HEADER.size + _VALUE.size
    head, value = _ENTRY_HEAD.unpack_from, _VALUE.unpack_from
    for _ in range(nkeys):
        start = offset + _ENTRY_HEAD.size
        end = start + head(buf, offset)[0]
        if kind == _KIND_STR:
            yield buf[start:end], end
        elif kind == _KIND_INT:
            yield value(buf, start)[0], end
        else:
            yield _decode_key(kind, bytes(buf[start:end])), end
        offset = end + _VALUE.size


def _decode_key(kind: int, raw: bytes):
    if kind == _KIND_INT:
        return _VALUE.unpack(raw)[0]
    if kind == _KIND_STR:
        return raw.decode("utf-8")
    arity = raw[0]
    offset = 1
    elements = []
    for _ in range(arity):
        elem_kind, length = _ELEM_HEAD.unpack_from(raw, offset)
        offset += _ELEM_HEAD.size
        elements.append(_decode_key(elem_kind, raw[offset : offset + length]))
        offset += length
    return tuple(elements)


@dataclass
class _Node:
    is_leaf: bool
    keys: list = field(default_factory=list)
    # leaves: values[i] pairs with keys[i]; internals: children has
    # len(keys) + 1 page numbers and keys[i] is the smallest key in
    # children[i + 1]'s subtree.
    values: list[int] = field(default_factory=list)
    children: list[int] = field(default_factory=list)
    next_leaf: int = _NO_PAGE

    def encoded_size(self, kind: int) -> int:
        """Bytes of :meth:`encode`'s image before its zero padding."""
        size = _NODE_HEADER.size + len(self.keys) * (_ENTRY_HEAD.size + _VALUE.size)
        if not self.is_leaf:
            size += _VALUE.size  # the extra leading child pointer
        if kind == _KIND_INT:  # every int key packs to one int64
            return size + len(self.keys) * _VALUE.size
        if kind == _KIND_STR:
            return size + sum(map(len, map(str.encode, self.keys)))
        return size + sum(len(_encode_key(key)[1]) for key in self.keys)

    def split(self) -> tuple[object, "_Node"]:
        """Cut an overflowing node at ``len(keys) // 2``: this node keeps
        the left half, the right half is returned with its separator.
        A leaf's separator is copied up, an internal node's moves up.
        The caller links a leaf to the right half's page."""
        half = len(self.keys) // 2
        if self.is_leaf:
            right = _Node(
                is_leaf=True,
                keys=self.keys[half:],
                values=self.values[half:],
                next_leaf=self.next_leaf,
            )
            separator = right.keys[0]
            del self.keys[half:], self.values[half:]
        else:
            separator = self.keys[half]
            right = _Node(
                is_leaf=False,
                keys=self.keys[half + 1 :],
                children=self.children[half + 1 :],
            )
            del self.keys[half:], self.children[half + 1 :]
        return separator, right

    def encode(self, kind: int, page_size: int) -> bytes:
        out = bytearray(
            _NODE_HEADER.pack(int(self.is_leaf), len(self.keys), self.next_leaf)
        )
        slots = self.values if self.is_leaf else self.children[1:]
        if not self.is_leaf:
            out += _VALUE.pack(self.children[0])
        for key, slot in zip(self.keys, slots):
            raw = _encode_key(key)[1]
            out += _ENTRY_HEAD.pack(len(raw))
            out += raw
            out += _VALUE.pack(slot)
        if len(out) > page_size:
            raise BTreeError("node serialization exceeds page size")
        return bytes(out) + bytes(page_size - len(out))

    @classmethod
    def decode(cls, buf, kind: int) -> "_Node":
        is_leaf, nkeys, next_leaf = _NODE_HEADER.unpack_from(buf, 0)
        node = cls(is_leaf=bool(is_leaf), next_leaf=next_leaf)
        offset = _NODE_HEADER.size
        if not node.is_leaf:
            node.children.append(_VALUE.unpack_from(buf, offset)[0])
            offset += _VALUE.size
        for _ in range(nkeys):
            (klen,) = _ENTRY_HEAD.unpack_from(buf, offset)
            offset += _ENTRY_HEAD.size
            key = _decode_key(kind, bytes(buf[offset : offset + klen]))
            offset += klen
            (slot,) = _VALUE.unpack_from(buf, offset)
            offset += _VALUE.size
            node.keys.append(key)
            if node.is_leaf:
                node.values.append(slot)
            else:
                node.children.append(slot)
        return node


class BTree:
    """A B+tree over a page file; see the module docstring."""

    def __init__(self, pfile: PageFile):
        self._file = pfile
        self._page_size = pfile.pool.disk.page_size
        #: logical page -> node, while :meth:`insert_many` holds them
        self._held: dict[int, _Node] | None = None
        meta = pfile.get_meta()
        if meta:
            self._root, self._count, self._kind = _META.unpack_from(meta, 0)
        else:
            root = _Node(is_leaf=True)
            self._root = pfile.append_page()
            self._kind = _KIND_UNSET
            self._count = 0
            self._write_node(self._root, root)
            self._store_meta()

    # -- construction ------------------------------------------------------------

    @classmethod
    def create(cls, fm: FileManager, name: str) -> "BTree":
        """Create a new empty tree stored in file ``name``."""
        return cls(fm.create(name))

    @classmethod
    def open(cls, fm: FileManager, name: str) -> "BTree":
        """Open an existing tree."""
        return cls(fm.open(name))

    @classmethod
    def build(cls, fm: FileManager, name: str, items) -> "BTree":
        """Create tree ``name`` holding ``(key, value)`` pairs ``items``:
        the tree an :meth:`insert` per pair, in this order, builds (the
        same pages, page numbers and meta), each node written once
        (:meth:`insert_many`)."""
        tree = cls(fm.create(name))
        tree.insert_many(items)
        return tree

    @classmethod
    def bulk_load(cls, fm: FileManager, name: str, items) -> "BTree":
        """Build a tree bottom-up from ``(key, value)`` pairs.

        The input is sorted here (by ``(key, value)``, the tree's entry
        order), leaves are packed sequentially and internal levels are
        stacked on top — O(n log n) for the sort plus one write per
        node, against one root-to-leaf descent per entry for repeated
        :meth:`insert` calls.  Used for index builds over whole tables.
        """
        tree = cls(fm.create(name))
        entries = sorted(items, key=lambda kv: (kv[0], kv[1]))
        if not entries:
            return tree
        tree._check_key(entries[0][0])
        # target ~85% fill so later inserts do not split immediately
        budget = int(tree._page_size * 0.85)

        def close_and_start(nodes, node, key, slot, is_leaf):
            """Move an overflowing last entry into a fresh node."""
            node.keys.pop()
            (node.values if is_leaf else node.children).pop()
            nodes.append(node)
            if is_leaf:
                return _Node(is_leaf=True, keys=[key], values=[slot])
            return _Node(is_leaf=False, children=[slot]), key

        # -- pack the leaf level --------------------------------------------
        leaves: list[_Node] = []
        node = _Node(is_leaf=True)
        for key, value in entries:
            node.keys.append(key)
            node.values.append(value)
            if node.encoded_size(tree._kind) > budget and len(node.keys) > 1:
                node = close_and_start(leaves, node, key, value, True)
        leaves.append(node)

        pages = [tree._file.append_page() for _ in leaves]
        for leaf, successor in zip(leaves, pages[1:]):
            leaf.next_leaf = successor
        for page, leaf in zip(pages, leaves):
            tree._write_node(page, leaf)
        # (first key of subtree, page) pairs feed the level above
        level = [(leaf.keys[0], page) for leaf, page in zip(leaves, pages)]

        # -- stack internal levels ---------------------------------------------
        while len(level) > 1:
            parents: list[_Node] = []
            firsts: list = []
            node = _Node(is_leaf=False, children=[level[0][1]])
            firsts.append(level[0][0])
            for key, child in level[1:]:
                node.keys.append(key)
                node.children.append(child)
                if node.encoded_size(tree._kind) > budget and len(node.keys) > 1:
                    node, first = close_and_start(
                        parents, node, key, child, False
                    )
                    firsts.append(first)
            parents.append(node)
            pages = [tree._file.append_page() for _ in parents]
            for page, parent in zip(pages, parents):
                tree._write_node(page, parent)
            level = list(zip(firsts, pages))

        tree._root = level[0][1]
        tree._count = len(entries)
        tree._store_meta()
        return tree

    def _store_meta(self) -> None:
        if self._held is None:  # else stored once, when the nodes are
            self._file.set_meta(_META.pack(self._root, self._count, self._kind))

    # -- node I/O -----------------------------------------------------------------

    def _read_node(self, logical: int, buf=None) -> _Node:
        """The node at ``logical``; ``buf`` is its page when the caller
        has read it already (a held node still wins over it)."""
        if self._held is None:
            if buf is None:
                buf = self._file.read(logical)
            return _Node.decode(buf, self._kind)
        node = self._held.get(logical)
        if node is None:
            node = self._held[logical] = _Node.decode(
                self._file.read(logical), self._kind
            )
        return node

    def _write_node(self, logical: int, node: _Node) -> None:
        if self._held is None:
            self._file.write(logical, node.encode(self._kind, self._page_size))
        else:
            self._held[logical] = node

    def _new_node(self, node: _Node) -> int:
        logical = self._file.append_page()
        self._write_node(logical, node)
        return logical

    # -- key typing ----------------------------------------------------------------

    def _check_key(self, key) -> None:
        kind = _encode_key(key)[0]
        if self._kind == _KIND_UNSET:
            self._kind = kind
            self._store_meta()
        elif kind != self._kind:
            want = {_KIND_INT: "int", _KIND_STR: "str", _KIND_TUPLE: "tuple"}[
                self._kind
            ]
            raise BTreeError(
                f"tree keys are {want}, got {type(key).__name__}"
            )

    # -- insertion --------------------------------------------------------------------

    def insert(self, key, value: int) -> None:
        """Insert one ``(key, value)`` entry; duplicates are allowed."""
        self._check_key(key)
        split = self._insert_into(self._root, key, value)
        if split is not None:
            separator, right_page = split
            old_root = self._root
            root = _Node(
                is_leaf=False, keys=[separator], children=[old_root, right_page]
            )
            self._root = self._new_node(root)
        self._count += 1
        self._store_meta()

    def insert_many(self, items) -> None:
        """:meth:`insert` each ``(key, value)`` pair of ``items`` in
        order, each node touched read and written once.

        The inserts run against nodes held in memory: the same descent,
        entry order and splits, a new page appended when the split that
        needs it happens.  Then each held node is encoded and written,
        and the meta stored, once — also when an insert raises, so the
        pages are those of the inserts that ran before it.
        """
        self._held = {}
        try:
            for key, value in items:
                self.insert(key, value)
        finally:
            held, self._held = self._held, None
            for logical, node in held.items():
                self._write_node(logical, node)
            self._store_meta()

    def _insert_into(self, logical: int, key, value: int):
        """Recursive insert; returns ``(separator, right_page)`` on split."""
        node = self._read_node(logical)
        if node.is_leaf:
            # entries sort by (key, value): after the values of key's run
            # that are <= value
            run = bisect_left(node.keys, key)
            run_end = bisect_right(node.keys, key, run)
            position = bisect_right(node.values, value, run, run_end)
            node.keys.insert(position, key)
            node.values.insert(position, value)
            return self._finish_write(logical, node)
        child_index = bisect_right(node.keys, key)
        split = self._insert_into(node.children[child_index], key, value)
        if split is None:
            return None
        separator, right_page = split
        node.keys.insert(child_index, separator)
        node.children.insert(child_index + 1, right_page)
        return self._finish_write(logical, node)

    def _finish_write(self, logical: int, node: _Node):
        """Write ``node`` back, splitting first if it no longer fits."""
        if node.encoded_size(self._kind) <= self._page_size:
            self._write_node(logical, node)
            return None
        separator, right = node.split()
        right_page = self._new_node(right)
        if node.is_leaf:
            node.next_leaf = right_page
        self._write_node(logical, node)
        return separator, right_page

    # -- lookup ------------------------------------------------------------------------

    def _leftmost_leaf_for(self, target) -> tuple[int, bytes]:
        """The leaf where entries of sort key ``target`` start (``None``:
        the first leaf), and a snapshot of its page: at each level the
        child left of the first key not below ``target``."""
        logical = self._root
        buf = self._file.read(logical)
        while not buf[0]:  # the header's is_leaf byte
            end = _NODE_HEADER.size  # the leading child
            for key, key_end in _entries(buf, self._kind):
                if target is None or key >= target:
                    break
                end = key_end
            logical = _VALUE.unpack_from(buf, end)[0]
            buf = self._file.read(logical)
        return logical, bytes(buf)

    def _leaf_entries(self, low, high) -> Iterator[tuple[object, int]]:
        """Yield ``(sort key, value)`` for the leaf entries with ``low <=
        key <= high`` (sort keys; ``None`` is open), in leaf order.

        The descent's leaf is walked from the page the descent read; each
        later leaf is read once.  Each leaf is walked as a snapshot of its
        bytes: a caller may write the tree between two entries.
        """
        kind = self._kind
        logical, buf = self._leftmost_leaf_for(low)
        while True:
            for key, end in _entries(buf, kind):
                if low is not None and key < low:
                    continue
                if high is not None and key > high:
                    return
                yield key, _VALUE.unpack_from(buf, end)[0]
            logical = _NODE_HEADER.unpack_from(buf, 0)[2]
            if logical == _NO_PAGE:
                return
            buf = bytes(self._file.read(logical))

    def search(self, key) -> list[int]:
        """All values stored under ``key`` (ascending), possibly empty.

        Duplicates of one key may be physically out of value order when
        a run spans a leaf split (inserts for the separator key always
        descend right), so the run is sorted here.
        """
        if self._count == 0 or self._kind == _KIND_UNSET:
            return []
        self._check_key(key)
        target = _sort_key(self._kind, key)
        return sorted(value for _, value in self._leaf_entries(target, target))

    def range_search(
        self, low=None, high=None
    ) -> Iterator[tuple[object, int]]:
        """Yield ``(key, value)`` with ``low <= key <= high`` in order.

        ``None`` bounds are open.  Runs of one key are buffered and
        value-sorted (see :meth:`search`); a run's key is decoded once.
        """
        if self._count == 0 or self._kind == _KIND_UNSET:
            return
        kind = self._kind
        if low is not None:
            self._check_key(low)
            low = _sort_key(kind, low)
        if high is not None:
            self._check_key(high)
            high = _sort_key(kind, high)
        for key, run in groupby(self._leaf_entries(low, high), itemgetter(0)):
            decoded = key.decode("utf-8") if kind == _KIND_STR else key
            for value in sorted(value for _, value in run):
                yield decoded, value

    def items(self) -> Iterator[tuple[object, int]]:
        """Every entry in key order."""
        return self.range_search()

    def __len__(self) -> int:
        return self._count

    def __contains__(self, key) -> bool:
        return bool(self.search(key))

    # -- deletion -------------------------------------------------------------------------

    def delete(self, key, value: int) -> bool:
        """Remove one exact ``(key, value)`` entry; returns whether found.

        Lazy deletion: leaves may underflow but are never merged.
        """
        if self._count == 0:
            return False
        self._check_key(key)
        logical, buf = self._leftmost_leaf_for(_sort_key(self._kind, key))
        while logical != _NO_PAGE:
            node = self._read_node(logical, buf)
            buf = None
            for i, (k, v) in enumerate(zip(node.keys, node.values)):
                if k > key:
                    return False
                if k == key and v == value:
                    del node.keys[i]
                    del node.values[i]
                    self._write_node(logical, node)
                    self._count -= 1
                    self._store_meta()
                    return True
            logical = node.next_leaf
        return False

    # -- invariants (used by tests) ------------------------------------------------------------

    def validate(self) -> None:
        """Check structural invariants; raises :class:`BTreeError` if broken."""
        leaf_depths: set[int] = set()
        entries = 0

        def walk(logical: int, depth: int, low, high) -> None:
            nonlocal entries
            node = self._read_node(logical)
            sortable = node.keys if node.is_leaf else node.keys
            if any(sortable[i] > sortable[i + 1] for i in range(len(sortable) - 1)):
                raise BTreeError(f"node {logical} keys out of order")
            for k in node.keys:
                if low is not None and k < low:
                    raise BTreeError(f"node {logical} violates lower bound")
                if high is not None and k > high:
                    raise BTreeError(f"node {logical} violates upper bound")
            if node.is_leaf:
                leaf_depths.add(depth)
                entries += len(node.keys)
                return
            if len(node.children) != len(node.keys) + 1:
                raise BTreeError(f"node {logical} child/key arity broken")
            bounds = [low, *node.keys, high]
            for i, child in enumerate(node.children):
                walk(child, depth + 1, bounds[i], bounds[i + 1])

        walk(self._root, 0, None, None)
        if len(leaf_depths) > 1:
            raise BTreeError(f"leaves at multiple depths: {leaf_depths}")
        if entries != self._count:
            raise BTreeError(
                f"entry count {entries} does not match metadata {self._count}"
            )
        # the leaf chain must enumerate every entry in sorted order
        chained = list(self.items())
        if len(chained) != self._count:
            raise BTreeError("leaf chain does not cover all entries")
        if any(chained[i][0] > chained[i + 1][0] for i in range(len(chained) - 1)):
            raise BTreeError("leaf chain out of order")

    def height(self) -> int:
        """Number of levels (1 = a single leaf)."""
        levels = 1
        node = self._read_node(self._root)
        while not node.is_leaf:
            node = self._read_node(node.children[0])
            levels += 1
        return levels

    def size_bytes(self) -> int:
        """On-disk footprint of the tree's page file."""
        return self._file.size_bytes()
