"""The OLAP Array ADT — the paper's contribution (§3, §4.1, §4.2).

- :mod:`repro.core.chunking` — chunk (tile) geometry and offset math.
- :mod:`repro.core.compression` — chunk codecs, led by §3.3's
  chunk-offset compression.
- :mod:`repro.core.dimension_index` — per-dimension B-tree key ↔ array
  index maps.
- :mod:`repro.core.index_to_index` — §3.4 hierarchy arrays.
- :mod:`repro.core.meta` — §3.3 chunk meta directory (OID + length).
- :mod:`repro.core.olap_array` — the ADT object and its functions.
- :mod:`repro.core.builder` — bulk loading fact tuples into an array.
- :mod:`repro.core.consolidate` — §4.1 array consolidation.
- :mod:`repro.core.select_consolidate` — §4.2 consolidation with
  selection.
- :mod:`repro.core.cube` — the CUBE operator (all 2ⁿ group-bys, one walk).
"""

from repro.core.chunking import ChunkGeometry
from repro.core.compression import (
    AdaptiveCodec,
    ChunkOffsetCodec,
    DenseCodec,
    LZWDenseCodec,
    get_codec,
)
from repro.core.dimension_index import DimensionIndex
from repro.core.index_to_index import IndexToIndex
from repro.core.olap_array import OLAPArray
from repro.core.builder import build_olap_array
from repro.core.consolidate import (
    ConsolidationResult,
    ConsolidationSpec,
    consolidate,
)
from repro.core.select_consolidate import Selection, consolidate_with_selection
from repro.core.cube import compute_cube

__all__ = [
    "ChunkGeometry",
    "ChunkOffsetCodec",
    "DenseCodec",
    "LZWDenseCodec",
    "AdaptiveCodec",
    "get_codec",
    "DimensionIndex",
    "IndexToIndex",
    "OLAPArray",
    "build_olap_array",
    "ConsolidationResult",
    "ConsolidationSpec",
    "consolidate",
    "Selection",
    "consolidate_with_selection",
    "compute_cube",
]
