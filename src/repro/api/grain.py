"""A materialized rollup grain: §4.1's in-memory result object, kept alive.

A :class:`Grain` holds the vectorized
:class:`~repro.core.consolidate.ResultAccumulator` state of its own
consolidation — touch counts and, per measure, ``sum`` / ``min`` /
``max`` columns in the measure's dtype — dense over the cross product of
its members.  So ``count`` is the counts and ``avg`` is ``sum ÷ count``,
a cell write moves exactly one position (:meth:`Grain.folded`), and
re-rolling to a coarser shape is two outer folds and a ``ufunc.at``
(:meth:`Grain.reroll`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from repro.aggregates import blank_column
from repro.core.chunking import ComposedTables, outer_fold

#: how each stored column folds, cell into cell (counts fold by ``+``)
FOLDS = {"sum": np.add, "min": np.minimum, "max": np.maximum}


def walk_columns(array, terms: list[np.ndarray], cells: int, bag):
    """``(counts, columns)`` of one consolidation from one walk of
    ``array``: all three folds fed with the offsets split once (the CUBE
    kernel's shape).  ``terms`` are the accumulator's per-dimension
    target terms; everything read is billed to ``bag``."""
    geometry = array.geometry
    counts = np.zeros(cells, dtype=np.int64)
    shape = (array.n_measures, cells)
    columns = {
        name: blank_column(ufunc, np.dtype(array.dtype), shape)
        for name, ufunc in FOLDS.items()
    }
    tables = ComposedTables(geometry, terms, np.add)
    for chunk in array.walk(range(geometry.n_chunks), None, bag):
        targets = tables.gather(chunk.origin, chunk.halves)
        if targets is None:  # every dimension dropped or one-membered
            targets = np.zeros(len(chunk), dtype=np.int64)
        np.add.at(counts, targets, 1)
        for m, measure in enumerate(chunk.values.T):
            for name, ufunc in FOLDS.items():
                ufunc.at(columns[name][m], targets, measure)
        bag.add("cells_scanned", len(chunk))
    return counts, columns


@dataclass(frozen=True, eq=False)
class Grain:
    """One generation of one materialized grain.

    Never mutated once built: a write makes the next generation's
    object, sharing every column it did not touch, so a reader holds one
    generation whole and what it was handed never changes under it.
    """

    physical: str
    #: ``(dimension, stored attribute, member values)`` per grain
    #: dimension, in base-cube order; cells are row-major over the members
    axes: tuple[tuple, ...]
    #: per base dimension, key → its contribution to the cell position
    #: (IndexToIndex target × result stride)
    key_terms: list[dict]
    generation: int
    #: base cells folded into each grain cell
    counts: np.ndarray
    #: ``"sum"`` / ``"min"`` / ``"max"`` → ``(n_measures, cells)`` in the
    #: measures' own dtype (int64 folds stay exact past 2**53)
    columns: dict[str, np.ndarray]

    def __len__(self) -> int:
        """Non-empty cells: the rows a consolidation at this grain has."""
        return int(np.count_nonzero(self.counts))

    @property
    def nbytes(self) -> int:
        return self.counts.nbytes + sum(c.nbytes for c in self.columns.values())

    def folded(self, keys, old, new, generation: int) -> "Grain | None":
        """This grain one cell write later (``old`` → ``new`` at ``keys``;
        ``old`` is ``None`` for a new cell), or ``None`` when only a
        rebuild can tell: the cell leaves a min or max it may have tied."""
        cell = sum(terms[key] for terms, key in zip(self.key_terms, keys))
        new = np.asarray(new, dtype=self.columns["sum"].dtype)
        low, high = self.columns["min"][:, cell], self.columns["max"][:, cell]
        counts = self.counts
        if old is None:
            counts = counts.copy()
            counts[cell] += 1
        elif ((old == low) & (new > low)).any() or ((old == high) & (new < high)).any():
            return None
        patch = {
            "sum": self.columns["sum"][:, cell] + (new if old is None else new - old),
            "min": np.minimum(low, new),
            "max": np.maximum(high, new),
        }
        columns = {}
        for name, column in self.columns.items():
            if (column[:, cell] != patch[name]).any():
                column = column.copy()
                column[:, cell] = patch[name]
            columns[name] = column
        return replace(self, generation=generation, counts=counts, columns=columns)

    def reroll(self, axes, cuts: list, wanted: dict, derive):
        """``(counts, columns)`` of this grain folded to the coarser shape
        ``axes`` (as :attr:`axes`; cells row-major), the cells ``cuts``
        drop left out; ``wanted`` is ``{column: measure indexes}`` and
        ``derive(cube, dim, stored, attr)`` maps a stored level's values
        to a coarser one's.

        The grain being dense, where its cells land is an outer sum of
        one small array per dimension (member → target member's index ×
        stride) and which the cuts keep an outer ``and`` of member masks;
        the non-empty kept cells then fold by ``ufunc.at``.
        """
        cells = stride = math.prod(len(members) for _, _, members in axes)
        term_of = {}
        for dim, attr, members in axes:
            stride //= len(members)
            term_of[dim] = (attr, {m: i * stride for i, m in enumerate(members)})
        # a leading one-cell axis leaves a fold as it is and gives a
        # grain of no dimensions its single cell
        terms, masks = [np.zeros(1, dtype=np.int64)], [np.ones(1, dtype=bool)]
        for dim, stored, members in self.axes:

            def seen_at(attr: str) -> list:
                """This dimension's members at a coarser-or-equal level
                (routing verified that it derives from the stored one)."""
                if attr == stored:
                    return members
                mapping = derive(self.physical, dim, stored, attr)
                return [mapping[member] for member in members]

            terms.append(np.zeros(len(members), dtype=np.int64))
            masks.append(np.ones(len(members), dtype=bool))
            if dim in term_of:
                attr, by_member = term_of[dim]
                terms[-1][:] = [by_member[value] for value in seen_at(attr)]
            for cut in cuts:
                if cut.dimension == dim:
                    masks[-1] &= [cut.matches(v) for v in seen_at(cut.attribute)]
        keep = (self.counts > 0) & outer_fold(np.logical_and, masks)
        picked = np.flatnonzero(keep)
        targets = outer_fold(np.add, terms)[picked]
        counts = np.zeros(cells, dtype=np.int64)
        np.add.at(counts, targets, self.counts[picked])
        columns = {}
        for name, measures in wanted.items():
            held = self.columns[name]
            columns[name] = blank_column(
                FOLDS[name], held.dtype, (len(measures), cells)
            )
            for column, m in zip(columns[name], measures):
                FOLDS[name].at(column, targets, held[m][picked])
        return counts, columns
