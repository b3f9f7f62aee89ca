"""Synthetic generators and file ingestion."""
import re

import numpy as np
import pytest

from edgeclust.core import validate_partition
from edgeclust.datagen import (SYNTHETIC_KINDS, EdgeLevelSpec, SyntheticSpec,
                               gen_edge_level, gen_synthetic, load_csv,
                               load_labeled_pairs, save_csv,
                               save_labeled_pairs)
from edgeclust.densities import UniformBoxDensity
from edgeclust.errors import ConfigError, DataError


class TestGenSynthetic:
    def test_crossbones_anisotropy(self, rng):
        s = gen_synthetic(SyntheticSpec(kind="crossbones", n=100), rng)
        assert len(np.unique(s.labels)) == 2
        for c in (1, 2):
            evals = np.linalg.eigvalsh(np.cov(s.features[s.labels == c].T))
            assert evals[-1] >= 10 * evals[-2]

    def test_grid_balanced(self, rng):
        s = gen_synthetic(SyntheticSpec(kind="grid", n=120, k=6), rng)
        counts = np.bincount(s.labels)[1:]
        assert counts.tolist() == [20] * 6

    def test_default_k(self, rng):
        assert SyntheticSpec(kind="grid", n=60).k == 6
        assert SyntheticSpec(kind="crossbones", n=60).k == 2
        s = gen_synthetic(SyntheticSpec(kind="grid", n=60), rng)
        assert sorted(set(s.labels.tolist())) == [1, 2, 3, 4, 5, 6]

    def test_zero_noise_collinear(self, rng):
        s = gen_synthetic(SyntheticSpec(kind="crossbones", n=40, noise=0.0),
                          rng)
        for c in (1, 2):
            pts = s.features[s.labels == c]
            evals = np.linalg.eigvalsh(np.cov(pts.T))
            assert abs(evals[0]) <= 1e-10

    def test_seed_reproducible(self):
        spec = SyntheticSpec(kind="blobs", n=30, k=3, noise=0.2)
        a = gen_synthetic(spec, np.random.default_rng(5))
        b = gen_synthetic(spec, np.random.default_rng(5))
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    def test_invalid_spec_rejected(self):
        with pytest.raises(ConfigError):
            SyntheticSpec(kind="swissroll", n=10)
        with pytest.raises(ConfigError):
            SyntheticSpec(kind="blobs", n=2, k=5)
        with pytest.raises(ConfigError):
            gen_synthetic(SyntheticSpec(kind="crossbones", n=10, k=3),
                          np.random.default_rng(0))

    @pytest.mark.parametrize("noise", [np.nan, np.inf, -np.inf, -0.1])
    def test_noise_must_be_finite_and_nonnegative(self, noise):
        with pytest.raises(ConfigError):
            SyntheticSpec(kind="blobs", n=10, noise=noise)

    @pytest.mark.parametrize("kind", SYNTHETIC_KINDS)
    def test_noise_that_overflows_the_points_rejected(self, kind):
        # a finite noise passes the spec, but its draws overflow to inf
        spec = SyntheticSpec(kind=kind, n=100, noise=1e308)
        with pytest.raises(ConfigError, match=r"noise 1e\+308"):
            gen_synthetic(spec, np.random.default_rng(1))


class TestGenEdgeLevel:
    def test_single_cluster_all_intra(self, rng):
        p = UniformBoxDensity(low=[0.0], high=[1.0])
        spec = EdgeLevelSpec(sizes=[5], p1=p, p0=p)
        feats, truth = gen_edge_level(spec, rng)
        assert len(feats) == 10
        assert truth.k == 1
        assert np.all(feats.vectors >= 0.0) and np.all(feats.vectors <= 1.0)

    def test_pair_counts(self, rng):
        p1 = UniformBoxDensity(low=[0.0], high=[1.0])
        p0 = UniformBoxDensity(low=[2.0], high=[3.0])
        feats, truth = gen_edge_level(EdgeLevelSpec(sizes=[2, 2], p1=p1, p0=p0),
                                      rng)
        same = truth.labels[feats.pairs[:, 0]] == truth.labels[feats.pairs[:, 1]]
        assert int(same.sum()) == 2
        assert int((~same).sum()) == 4

    def test_counts_cover_all_pairs(self, rng):
        p = UniformBoxDensity(low=[0.0], high=[1.0])
        feats, _ = gen_edge_level(EdgeLevelSpec(sizes=[3, 4, 5], p1=p, p0=p),
                                  rng)
        n = 12
        assert len(feats) == n * (n - 1) // 2

    @pytest.mark.parametrize("sizes", [[2.7, 3], [True, 3], ["4", 3], [],
                                       [0, 3], 5])
    def test_sizes_must_be_positive_integers(self, sizes):
        p = UniformBoxDensity(low=[0.0], high=[1.0])
        with pytest.raises(ConfigError, match="positive integer sizes"):
            EdgeLevelSpec(sizes=sizes, p1=p, p0=p)

    def test_numpy_integer_sizes_accepted(self):
        p = UniformBoxDensity(low=[0.0], high=[1.0])
        spec = EdgeLevelSpec(sizes=np.array([2, 3]), p1=p, p0=p)
        assert spec.sizes == (2, 3)
        assert all(type(s) is int for s in spec.sizes)

    def test_dimension_mismatch_rejected(self):
        p1 = UniformBoxDensity(low=[0.0], high=[1.0])
        p0 = UniformBoxDensity(low=[0.0, 0.0], high=[1.0, 1.0])
        with pytest.raises(ConfigError):
            EdgeLevelSpec(sizes=[2, 2], p1=p1, p0=p0)


class TestCsv:
    def test_basic_labeled(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1.0,2.0,1\n1.5,2.5,1\n0.0,0.0,1\n")
        s = load_csv(path, has_labels=True)
        assert s.n == 3 and s.d == 2
        assert s.labels.tolist() == [1, 1, 1]

    def test_header_autodetected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("x,y,label\n1.0,2.0,1\n2.0,3.0,2\n")
        s = load_csv(path, has_labels=True)
        assert s.n == 2

    def test_ragged_row_names_line(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1.0,2.0\n1.0\n")
        with pytest.raises(DataError, match="2"):
            load_csv(path)

    def test_non_numeric_cell_diagnosed(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1.0,2.0\n1.0,oops\n")
        with pytest.raises(DataError, match="column 2"):
            load_csv(path)

    def test_first_row_typo_is_not_a_header(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1.0,oops,1\n2.0,3.0,1\n4.0,5.0,2\n")
        with pytest.raises(DataError, match="d.csv:1: column 2"):
            load_csv(path, has_labels=True)

    @pytest.mark.parametrize("label", ["inf", "-inf", "nan"])
    def test_non_finite_label_rejected(self, tmp_path, label):
        path = tmp_path / "d.csv"
        path.write_text(f"1.0,2.0,1\n1.0,1.0,{label}\n")
        with pytest.raises(DataError, match="label"):
            load_csv(path, has_labels=True)

    def test_label_beyond_int64_rejected(self, tmp_path):
        # cast to int64 these would wrap onto one label
        path = tmp_path / "d.csv"
        path.write_text("1.0,2.0,1\n1.0,1.0,1e20\n3.0,1.0,2e20\n")
        with pytest.raises(DataError, match=f"^{re.escape(str(path))}: label"):
            load_csv(path, has_labels=True)

    def test_empty_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("")
        with pytest.raises(DataError):
            load_csv(path)

    def test_skin_style_file(self, tmp_path, rng):
        # B,G,R,label rows with labels {1,2}
        rows = ["%d,%d,%d,%d" % (b, g, r, lab)
                for b, g, r, lab in zip(rng.integers(0, 256, 20),
                                        rng.integers(0, 256, 20),
                                        rng.integers(0, 256, 20),
                                        [1, 2] * 10)]
        path = tmp_path / "skin.csv"
        path.write_text("\n".join(rows) + "\n")
        s = load_csv(path, has_labels=True)
        assert s.d == 3
        assert validate_partition(s.labels).k == 2

    def test_roundtrip(self, tmp_path, rng):
        from edgeclust.core import SampleSet
        s = SampleSet(features=rng.normal(size=(6, 2)),
                      labels=np.array([1, 1, 2, 2, 3, 3]))
        path = tmp_path / "d.csv"
        save_csv(s, path)
        back = load_csv(path, has_labels=True)
        assert np.allclose(back.features, s.features)
        assert np.array_equal(back.labels, s.labels)


class TestLabeledPairFiles:
    def test_roundtrip(self, tmp_path):
        pairs = np.array([[0, 1], [1, 2], [0, 3]])
        same = np.array([True, False, True])
        path = tmp_path / "pairs.csv"
        save_labeled_pairs(pairs, same, path)
        assert path.read_text() == "0,1,1\n1,2,0\n0,3,1\n"
        bp, bs = load_labeled_pairs(path)
        assert np.array_equal(bp, pairs)
        assert np.array_equal(bs, same)

    def test_bad_flag_rejected(self, tmp_path):
        path = tmp_path / "pairs.csv"
        path.write_text("0,1,2\n")
        with pytest.raises(DataError):
            load_labeled_pairs(path)

    def test_malformed_rejected(self, tmp_path):
        path = tmp_path / "pairs.csv"
        path.write_text("0,1\n")
        with pytest.raises(DataError):
            load_labeled_pairs(path)
