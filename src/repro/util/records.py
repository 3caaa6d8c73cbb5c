"""Fixed-length binary record codecs.

The fact file (§4.4) depends on every record having the same byte
length, so tuple number → (extent, page, offset) is pure arithmetic.
:class:`RecordCodec` packs a heterogeneous tuple of ints / floats /
fixed-width strings into exactly ``record_size`` bytes using
:mod:`struct`, and unpacks whole pages at a time for scans.
"""

from __future__ import annotations

import struct
from collections.abc import Iterable, Iterator, Sequence

import numpy as np

from repro.errors import SchemaError

_FORMATS = {
    "int32": "i",
    "int64": "q",
    "float64": "d",
}


def as_column(values: Sequence) -> np.ndarray:
    """One field's values as an ``int64``, ``float64`` or ``<U`` array
    of their own kind: ``[1, "1"]`` is an error, not two strings, and an
    int past ``int64`` an error, not a float."""
    column = np.asarray(values)
    kind = column.dtype.kind
    if kind in "bi":
        return column.astype(np.int64, copy=False)
    types = set(map(type, values))  # ints alone turn float only past int64
    if (kind == "f" and not types <= {int, bool}) or (
        kind == "U" and types <= {str, np.str_}
    ):
        return column
    raise SchemaError(f"column of mixed kinds or past int64: {values[:3]}...")


def narrowest(count: int, signed: bool) -> np.dtype:
    """The narrowest integer dtype that holds ``count``, so that a
    per-row index or code into ``count`` things can never wrap."""
    kinds = (
        (np.int8, np.int16, np.int32, np.int64)
        if signed
        else (np.uint8, np.uint16, np.uint32, np.uint64)
    )
    return next(np.dtype(k) for k in kinds if np.iinfo(k).max >= count)


#: rows :func:`key_positions` maps per gather: its ``int64`` differences
#: are one block's, never a column's (a column-long one left the WAL
#: workloads' load ≈ 5 MB more resident)
KEY_BLOCK_ROWS = 1 << 16


def key_positions(keys: np.ndarray, column: np.ndarray) -> np.ndarray:
    """The position in ``keys`` (distinct) of each value of ``column``,
    ``-1`` where it is not a key, in the narrowest signed dtype that
    holds ``len(keys)``.  As in a dict, ``"1"`` is not ``1``: a column
    of the other kind holds no key.

    Integer keys whose span (max − min + 1) is no longer than the
    column map through one table, key − min → position (``-1`` for a
    gap): per block of rows, one subtraction, one gather, one bounds
    check.  Other keys (strings, a sparse or huge span, a column
    ``int64`` cannot hold) are a binary search into the sorted keys and
    an equality check.
    """
    dtype = narrowest(len(keys), signed=True)
    if not len(keys) or (column.dtype.kind == "U") != (keys.dtype.kind == "U"):
        return np.full(len(column), -1, dtype)
    if (
        keys.dtype.kind == "i"
        and column.dtype.kind in "iu"
        and np.can_cast(column.dtype, np.int64)
    ):
        low = int(keys.min())
        span = int(keys.max()) - low + 1
        if span <= len(column):
            table = np.full(span, -1, dtype)
            table[keys - low] = np.arange(len(keys), dtype=dtype)
            positions = np.empty(len(column), dtype)
            for start in range(0, len(column), KEY_BLOCK_ROWS):
                rows = slice(start, start + KEY_BLOCK_ROWS)
                shifted = np.subtract(column[rows], low, dtype=np.int64)
                table.take(shifted, mode="clip", out=positions[rows])
                # below the span wraps to past it as unsigned
                positions[rows][shifted.view(np.uint64) >= span] = -1
            return positions
    order = np.argsort(keys, kind="stable")
    ordered = keys[order]
    at = np.searchsorted(ordered, column)
    positions = order.astype(dtype).take(at, mode="clip")
    positions[ordered.take(at, mode="clip") != column] = -1
    return positions


def fact_columns(rows: Iterable[Sequence]) -> list[np.ndarray]:
    """Rows as one array per field: the loaders' only row-to-column door.

    Array-backed rows (``__array__``: an ndarray, the generator's
    ``FactRows``) give column views; any other iterable of tuples is
    transposed and each column typed on its own.  No rows, no columns.
    """
    if hasattr(rows, "__array__"):
        table = np.asarray(rows)
        if table.ndim != 2 or table.dtype.kind not in "iuf":
            raise SchemaError(f"not a 2-D numeric table: {table.shape} {table.dtype}")
        return list(table.T)
    rows = list(rows)
    if len(set(map(len, rows))) > 1:  # zip() would stop at the shortest
        raise SchemaError("fact rows differ in length")
    return [as_column(values) for values in zip(*rows)]


#: rows a loader's whole-table pass takes at a time (a slab): the pass's
#: temporaries are one slab's, ≈ 100 KB of 24-byte records, never a
#: table-sized copy (:meth:`RecordCodec.check_columns`, the array plan)
SLAB_ROWS = 1 << 12


def _decode_strings(column: np.ndarray) -> np.ndarray:
    """A ``S<n>`` column as ``<U<n>``: a cast (numpy 2.4, a 40-row
    ``S8`` column: ≈ 6 µs against ≈ 35 µs for ``np.char.decode``), and
    the UTF-8 decode only when a value holds a non-ASCII byte, where the
    cast raises."""
    try:
        return column.astype(f"U{column.dtype.itemsize}")
    except UnicodeDecodeError:
        return np.char.decode(column, "utf-8")


class RecordCodec:
    """Pack/unpack fixed-length records described by a list of type names.

    Supported field types: ``int32``, ``int64``, ``float64`` and
    ``str:N`` (UTF-8, zero-padded to N bytes; values longer than N are
    rejected, not truncated).
    """

    def __init__(self, field_types: Sequence[str]):
        if not field_types:
            raise SchemaError("a record needs at least one field")
        self.field_types = tuple(field_types)
        fmt = "<"
        self._string_widths: list[int | None] = []
        for ftype in field_types:
            if ftype in _FORMATS:
                fmt += _FORMATS[ftype]
                self._string_widths.append(None)
            elif ftype.startswith("str:"):
                width = int(ftype.split(":", 1)[1])
                if width <= 0:
                    raise SchemaError(f"string width must be positive: {ftype}")
                fmt += f"{width}s"
                self._string_widths.append(width)
            else:
                raise SchemaError(f"unknown field type {ftype!r}")
        self._struct = struct.Struct(fmt)
        #: the same record as a packed numpy dtype, to lay down by column
        widths = zip(field_types, self._string_widths)
        codes = [f"S{w}" if w else "<" + _FORMATS[t] for t, w in widths]
        self.dtype = np.dtype([(f"f{i}", code) for i, code in enumerate(codes)])

    @property
    def record_size(self) -> int:
        """Encoded size of one record in bytes."""
        return self._struct.size

    def _encode_fields(self, values: Sequence) -> list:
        if len(values) != len(self.field_types):
            raise SchemaError(
                f"record has {len(values)} values, codec expects "
                f"{len(self.field_types)}"
            )
        encoded = []
        for value, width in zip(values, self._string_widths):
            if width is None:
                encoded.append(value)
            else:
                raw = value.encode("utf-8")
                if len(raw) > width:
                    raise SchemaError(
                        f"string {value!r} exceeds fixed width {width}"
                    )
                encoded.append(raw)
        return encoded

    def _decode_fields(self, raw: tuple) -> tuple:
        values = []
        for value, width in zip(raw, self._string_widths):
            if width is None:
                values.append(value)
            else:
                values.append(value.rstrip(b"\x00").decode("utf-8"))
        return tuple(values)

    def pack(self, values: Sequence) -> bytes:
        """Encode one record to exactly :attr:`record_size` bytes."""
        return self._struct.pack(*self._encode_fields(values))

    def pack_into(self, buffer, offset: int, values: Sequence) -> None:
        """Encode one record into ``buffer`` at ``offset``."""
        self._struct.pack_into(buffer, offset, *self._encode_fields(values))

    def _encoded(self, columns: list[np.ndarray]) -> Iterator[tuple]:
        """Each field's ``(name, type, column)``, the column checked for
        arity and kind and a string column encoded to UTF-8 bytes."""
        if columns and len(columns) != len(self.field_types):
            raise SchemaError(
                f"record has {len(columns)} values, codec expects "
                f"{len(self.field_types)}"
            )
        for name, ftype, column in zip(self.dtype.names, self.field_types, columns):
            kinds = {"f": "iuf", "S": "U"}.get(self.dtype[name].kind, "iu")
            if column.dtype.kind not in kinds:
                raise SchemaError(f"a {column.dtype} column cannot fill a {ftype} field")
            if kinds == "U":
                column = np.char.encode(column, "utf-8")
            yield name, ftype, column

    def pack_columns(self, columns: list[np.ndarray], out: np.ndarray) -> None:
        """Columns (:func:`fact_columns`) as packed records, the bytes of
        :meth:`pack` on each row in turn, written into ``out``: a
        :attr:`dtype` array or view as long as the columns, such as a
        page frame's.  Each field is one numpy cast, which wraps or
        truncates a value its field cannot hold: the values must have
        passed :meth:`check_columns`."""
        for name, _, column in self._encoded(columns):
            out[name] = column

    def check_columns(self, columns: list[np.ndarray]) -> None:
        """Raise :class:`SchemaError` unless every value fits its field
        (no int out of range, no string too wide) and the columns match
        the record's arity and kinds.  Each :data:`SLAB_ROWS` rows are
        packed into one scratch slab and each field compared with its
        column, so no cast wraps or truncates unseen, and a whole table
        is checked without a packed copy of it."""
        rows = len(columns[0]) if columns else 0
        slab = np.empty(min(rows, SLAB_ROWS), dtype=self.dtype)
        for start in range(0, max(rows, 1), SLAB_ROWS):  # once even if empty
            part = [column[start : start + SLAB_ROWS] for column in columns]
            packed = slab[: len(part[0]) if part else 0]
            for name, ftype, column in self._encoded(part):
                packed[name] = column
                if ftype != "float64" and (packed[name] != column).any():
                    raise SchemaError(f"a value does not fit its {ftype} field")

    def unpack_columns(
        self, records: np.ndarray, fields: Sequence[int] | None = None
    ) -> list[np.ndarray]:
        """Packed records back to one column per field, the inverse of
        :meth:`pack_columns`: numbers in their field's dtype, strings
        decoded to ``<U`` (what :meth:`unpack` yields, a column at a
        time).  ``fields`` (positions, in the order wanted) decodes only
        those columns."""
        names = self.dtype.names
        if fields is not None:
            names = [names[at] for at in fields]
        return [
            _decode_strings(records[name])
            if self.dtype[name].kind == "S"
            else records[name]
            for name in names
        ]

    def unpack(self, payload: bytes) -> tuple:
        """Decode one record."""
        return self._decode_fields(self._struct.unpack(payload))

    def unpack_from(self, buffer, offset: int = 0) -> tuple:
        """Decode one record from ``buffer`` at ``offset``."""
        return self._decode_fields(self._struct.unpack_from(buffer, offset))

    def iter_unpack(self, buffer, count: int, offset: int = 0) -> Iterator[tuple]:
        """Decode ``count`` consecutive records starting at ``offset``.

        This is the page-scan fast path: one :func:`struct.iter_unpack`
        over a memoryview slice instead of ``count`` separate calls.
        """
        size = self._struct.size
        view = memoryview(buffer)[offset : offset + count * size]
        for raw in self._struct.iter_unpack(view):
            yield self._decode_fields(raw)
