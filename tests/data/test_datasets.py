"""Tests for the paper dataset presets."""

import pytest

from repro.core import ChunkGeometry
from repro.data import dataset1, dataset2, get_scale, selectivity_configs
from repro.data.datasets import DATASET2_DENSITIES, QUERY2_FANOUTS
from repro.errors import DataGenError


class TestDataset1:
    @pytest.mark.parametrize("scale", ["small", "medium", "paper"])
    def test_chunk_counts_match_paper(self, scale):
        # §5.5.1: 40, 80 and 800 chunks for the three arrays
        counts = [
            ChunkGeometry(c.dim_sizes, c.chunk_shape).n_chunks
            for c in dataset1(scale)
        ]
        assert counts == [40, 80, 800]

    @pytest.mark.parametrize("scale", ["small", "medium", "paper"])
    def test_constant_valid_cells(self, scale):
        configs = dataset1(scale)
        assert len({c.n_valid for c in configs}) == 1

    def test_paper_scale_exact_numbers(self):
        configs = dataset1("paper")
        assert [c.dim_sizes for c in configs] == [
            (40, 40, 40, 50),
            (40, 40, 40, 100),
            (40, 40, 40, 1000),
        ]
        assert all(c.n_valid == 640_000 for c in configs)
        assert [round(c.density, 3) for c in configs] == [0.2, 0.1, 0.01]

    def test_density_ratios_preserved_across_scales(self):
        for scale in ("small", "medium"):
            densities = [c.density for c in dataset1(scale)]
            assert densities[0] == pytest.approx(0.2)
            assert densities[1] == pytest.approx(0.1)
            assert densities[2] == pytest.approx(0.01)


class TestDataset2:
    def test_densities_swept(self):
        configs = dataset2("small")
        assert [round(c.density, 4) for c in configs] == [
            round(d, 4) for d in DATASET2_DENSITIES
        ]

    def test_paper_dims(self):
        configs = dataset2("paper")
        assert all(c.dim_sizes == (40, 40, 40, 100) for c in configs)

    def test_custom_densities(self):
        configs = dataset2("small", densities=(0.5,))
        assert len(configs) == 1
        assert configs[0].density == pytest.approx(0.5)


class TestSelectivityConfigs:
    def test_fanout_sweep(self):
        configs = selectivity_configs("small")
        assert [c.fanout1 for c in configs] == list(QUERY2_FANOUTS)

    def test_star_join_selectivity_range(self):
        # paper: S ranges 0.0625 down to 0.0001 for 4 joined dimensions
        selectivities = [1 / f**4 for f in QUERY2_FANOUTS]
        assert selectivities[0] == pytest.approx(0.0625)
        assert selectivities[-1] == pytest.approx(0.0001)

    def test_large_vs_small_fourth_dim(self):
        large = selectivity_configs("small", fourth_dim="large")[0]
        small = selectivity_configs("small", fourth_dim="small")[0]
        assert large.dim_sizes[-1] > small.dim_sizes[-1]

    def test_names_unique(self):
        names = [c.name for c in selectivity_configs("small")]
        assert len(set(names)) == len(names)


class TestScaleEnv:
    def test_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_SCALE", raising=False)
        assert get_scale() == "small"
        assert get_scale(default="medium") == "medium"

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "paper")
        assert get_scale() == "paper"

    def test_invalid_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "galactic")
        with pytest.raises(DataGenError):
            get_scale()
