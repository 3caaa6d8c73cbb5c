"""Stress: query correctness under heavy buffer-pool pressure and odd codecs.

The paper's 16 MB pool does not hold its 25 MB database; these tests
shrink the pool far below the data so every scan evicts constantly, and
swap codecs, to confirm the answers never change.
"""

import pytest

from repro.bench import run_cold
from repro.data import (
    SyntheticCubeConfig,
    cube_schema_for,
    generate_dimension_rows,
    generate_fact_rows,
)
from repro.olap import ConsolidationQuery, OlapEngine, SelectionPredicate

CONFIG = SyntheticCubeConfig(
    name="stress",
    dim_sizes=(10, 8, 12),
    n_valid=400,
    chunk_shape=(4, 4, 4),
    fanout1=4,
)
Q1 = ConsolidationQuery.build(
    "stress", group_by={"dim0": "h01", "dim1": "h11", "dim2": "h21"}
)
Q2 = ConsolidationQuery.build(
    "stress",
    group_by={"dim0": "h01"},
    selections=[SelectionPredicate("dim1", "h11", values=("AA1", "AA3"))],
)


def build(pool_frames, codec="chunk-offset", page_size=512):
    engine = OlapEngine(
        page_size=page_size, pool_bytes=pool_frames * page_size
    )
    engine.load_cube(
        cube_schema_for(CONFIG),
        generate_dimension_rows(CONFIG),
        generate_fact_rows(CONFIG),
        chunk_shape=CONFIG.chunk_shape,
        codec=codec,
    )
    return engine


@pytest.fixture(scope="module")
def roomy():
    return build(pool_frames=2048)


class TestPoolPressure:
    @pytest.mark.parametrize("frames", [8, 16, 64])
    def test_tiny_pool_answers_match(self, roomy, frames):
        tight = build(pool_frames=frames)
        for query, backend in (
            (Q1, "array"),
            (Q1, "starjoin"),
            (Q2, "array"),
            (Q2, "bitmap"),
        ):
            assert (
                tight.query(query, backend=backend).rows
                == roomy.query(query, backend=backend).rows
            )

    def test_tiny_pool_pays_more_io(self, roomy):
        tight = build(pool_frames=8)
        # warm both, then measure a warm run: the tight pool cannot hold
        # the working set and must re-read
        roomy.query(Q1, backend="starjoin")
        tight.query(Q1, backend="starjoin")
        warm_roomy = roomy.query(Q1, backend="starjoin", cold=False)
        warm_tight = tight.query(Q1, backend="starjoin", cold=False)
        assert warm_tight.stats.get("pages_read", 0) > warm_roomy.stats.get(
            "pages_read", 0
        )


class TestCodecTransparency:
    @pytest.mark.parametrize("codec", ["dense", "lzw-dense", "adaptive"])
    def test_all_codecs_answer_identically(self, roomy, codec):
        other = build(pool_frames=2048, codec=codec)
        for query, backend, kwargs in (
            (Q1, "array", {}),
            (Q1, "array", {"shards": 2}),
            (Q2, "array", {}),
        ):
            assert (
                other.query(query, backend=backend, **kwargs).rows
                == roomy.query(query, backend=backend, **kwargs).rows
            )
        # §4.2's naive order is the harness's abl5 baseline
        assert (
            run_cold(other, Q2, "naive").rows
            == run_cold(roomy, Q2, "naive").rows
        )

    def test_point_lookups_through_every_codec(self, roomy):
        facts = generate_fact_rows(CONFIG)
        for codec in ("dense", "lzw-dense", "adaptive"):
            other = build(pool_frames=256, codec=codec)
            array = other.cube("stress").array
            for row in facts[:10]:
                assert array.get_cell(row[:3])[0] == row[3]
