"""k-means and spectral clustering baselines."""
import numpy as np
import pytest

from edgeclust.baselines import (SpectralConfig, _affinity, kmeans,
                                 kmeans_matrix, spectral)
from edgeclust.core import SampleSet, nmi, validate_partition
from edgeclust.datagen import SyntheticSpec, gen_synthetic
from edgeclust.errors import ConfigError, DataError


def _blobs(rng, n=40, spread=0.05):
    centers = np.array([[0.0, 0.0], [10.0, 10.0]])
    labels = np.repeat([1, 2], n // 2)
    feats = centers[labels - 1] + rng.normal(scale=spread, size=(n, 2))
    return SampleSet(features=feats, labels=labels)


class TestKmeans:
    def test_separated_pairs(self, rng):
        s = _blobs(rng)
        p = kmeans(s, 2, rng)
        assert nmi(p, validate_partition(s.labels)) == pytest.approx(1.0)

    def test_k_one_single_cluster(self, rng):
        s = _blobs(rng)
        p = kmeans(s, 1, rng)
        assert p.k == 1

    def test_k_equals_n_zero_inertia(self, rng):
        x = rng.normal(size=(6, 2))
        labels, inertia = kmeans_matrix(x, 6, rng)
        assert inertia == pytest.approx(0.0, abs=1e-12)
        assert len(set(labels.tolist())) == 6

    def test_k_too_large_rejected(self, rng):
        s = _blobs(rng, n=4)
        with pytest.raises((ConfigError, DataError)):
            kmeans(s, 5, rng)

    def test_seed_determinism(self, rng):
        s = _blobs(rng, spread=2.0)
        a = kmeans(s, 3, np.random.default_rng(4))
        b = kmeans(s, 3, np.random.default_rng(4))
        assert np.array_equal(a.labels, b.labels)


class TestSpectral:
    def test_two_distant_blobs(self, rng):
        s = _blobs(rng)
        p = spectral(s, SpectralConfig(k=2, knn=5), rng)
        assert nmi(p, validate_partition(s.labels)) == pytest.approx(1.0)

    def test_concentric_circles(self):
        rng = np.random.default_rng(1)
        s = gen_synthetic(SyntheticSpec(kind="circles", n=120, k=2, noise=0.05),
                          rng)
        p = spectral(s, SpectralConfig(k=2), rng)
        assert nmi(p, validate_partition(s.labels)) == pytest.approx(1.0)

    def test_affinity_symmetric(self, rng):
        s = _blobs(rng, spread=1.0)
        w = _affinity(s.features, SpectralConfig(k=2, knn=5))
        assert np.allclose(w, w.T)
        assert np.all(w >= 0)

    def test_far_outlier_keeps_positive_degree(self, rng):
        # the outlier's Gaussian weights and its nearest-neighbor fallback
        # both underflow to 0, so only the self-loop keeps its degree > 0
        feats = np.vstack([rng.normal(size=(10, 2)), [[1e6, 1e6]]])
        w = _affinity(feats, SpectralConfig(k=2, knn=3))
        assert np.all(w[-1, :-1] == 0.0) and w[-1, -1] > 0.0
        assert np.all(w.sum(axis=1) > 0.0)
        p = spectral(SampleSet(features=feats), SpectralConfig(k=2, knn=3), rng)
        assert p.n == 11

    def test_seed_determinism(self, rng):
        s = _blobs(rng, spread=2.0)
        a = spectral(s, SpectralConfig(k=2, knn=5), np.random.default_rng(8))
        b = spectral(s, SpectralConfig(k=2, knn=5), np.random.default_rng(8))
        assert np.array_equal(a.labels, b.labels)

    def test_k_one_single_cluster(self, rng):
        s = _blobs(rng)
        assert spectral(s, SpectralConfig(k=1), rng).k == 1

    def test_invalid_config_rejected(self):
        with pytest.raises(ConfigError):
            SpectralConfig(k=0)
        with pytest.raises(ConfigError):
            SpectralConfig(k=2, knn=0)
