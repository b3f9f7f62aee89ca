"""Edge vectors, labeled-pair sampling, and PCA."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from edgeclust.core import SampleSet
from edgeclust.edge_features import (all_pairs, build_edge_features,
                                     canonical_kind, pca_fit, pca_transform,
                                     sample_labeled_pairs, sample_ranks,
                                     unrank_pairs)
from edgeclust.errors import ConfigError, DataError

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False,
                   allow_infinity=False)


def similarity(u, v, kind):
    """Edge vector of the single pair (0, 1) over node rows u and v."""
    s = SampleSet(features=[u, v])
    return build_edge_features(s, all_pairs(2), kind).vectors[0]


def vec_pairs(d):
    return st.tuples(arrays(float, d, elements=finite),
                     arrays(float, d, elements=finite))


class TestSimilarity:
    def test_abs_diff_example(self):
        assert similarity([1, 3], [2, 1], "abs_diff").tolist() == [1, 2]

    def test_abs_diff_identity(self):
        u = np.array([0.5, -2.0, 7.0])
        assert similarity(u, u, "abs_diff").tolist() == [0, 0, 0]

    def test_euclidean_345(self):
        out = similarity([0, 0], [3, 4], "euclidean")
        assert out.shape == (1,)
        assert out[0] == pytest.approx(5.0)

    def test_dimension_mismatch(self):
        with pytest.raises(DataError):
            similarity([1, 2], [1, 2, 3], "abs_diff")

    def test_non_finite_rejected(self):
        with pytest.raises(DataError):
            similarity([np.nan, 0], [0, 0], "abs_diff")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            similarity([1], [2], "cosine")

    def test_aliases(self):
        assert canonical_kind("absdiff") == "abs_diff"
        assert canonical_kind("euclid") == "euclidean"

    @given(vec_pairs(3), st.sampled_from(["abs_diff", "euclidean"]))
    @settings(max_examples=50)
    def test_symmetric_and_nonnegative(self, uv, kind):
        u, v = uv
        a = similarity(u, v, kind)
        b = similarity(v, u, kind)
        assert np.array_equal(a, b)
        assert np.all(a >= 0)

    @given(arrays(float, 3, elements=finite))
    def test_euclidean_zero_iff_equal(self, u):
        assert similarity(u, u, "euclidean")[0] == 0.0


class TestSampleLabeledPairs:
    def test_exhaustive_small_case(self, rng):
        s = SampleSet(features=np.arange(8, dtype=float).reshape(4, 2),
                      labels=[1, 1, 2, 2])
        lp = sample_labeled_pairs(s, 6, rng)
        assert lp.same_vectors.shape[0] == 2
        assert lp.diff_vectors.shape[0] == 4

    def test_zero_pairs_rejected(self, rng):
        s = SampleSet(features=np.zeros((4, 1)), labels=[1, 1, 2, 2])
        with pytest.raises((ConfigError, DataError)):
            sample_labeled_pairs(s, 0, rng)

    def test_capped_at_all_pairs(self, rng):
        feats = rng.normal(size=(100, 3))
        labels = np.repeat([1, 2], 50)
        s = SampleSet(features=feats, labels=labels)
        lp = sample_labeled_pairs(s, 5000, rng)
        assert lp.same_vectors.shape[0] + lp.diff_vectors.shape[0] == 4950

    def test_unlabeled_rejected(self, rng):
        s = SampleSet(features=np.zeros((4, 1)))
        with pytest.raises(DataError):
            sample_labeled_pairs(s, 2, rng)

    def test_seed_determinism(self):
        feats = np.random.default_rng(3).normal(size=(30, 2))
        labels = np.repeat([1, 2, 3], 10)
        s = SampleSet(features=feats, labels=labels)
        a = sample_labeled_pairs(s, 50, np.random.default_rng(42))
        b = sample_labeled_pairs(s, 50, np.random.default_rng(42))
        assert np.array_equal(a.same_vectors, b.same_vectors)
        assert np.array_equal(a.diff_vectors, b.diff_vectors)


class TestPairRanks:
    def test_unranking_matches_all_pairs(self):
        for n in range(61):
            ranks = np.arange(n * (n - 1) // 2)
            assert np.array_equal(unrank_pairs(n, ranks), all_pairs(n)), n

    def test_large_draw(self, rng):
        n, m = 4000, 20000  # C(n, 2) is about 8M
        pairs = unrank_pairs(n, sample_ranks(n * (n - 1) // 2, m, rng))
        assert pairs.shape == (m, 2)
        assert np.all((0 <= pairs[:, 0]) & (pairs[:, 0] < pairs[:, 1])
                      & (pairs[:, 1] < n))
        assert len(np.unique(pairs, axis=0)) == m

    def test_every_rank_draws_nothing(self):
        rng = np.random.default_rng(0)
        assert np.array_equal(sample_ranks(10, 12, rng), np.arange(10))
        assert rng.random() == np.random.default_rng(0).random()


class TestPca:
    def test_line_in_r3_needs_one_component(self, rng):
        t = rng.normal(size=(40, 1))
        rows = t * np.array([[1.0, 2.0, -1.0]]) + np.array([3.0, 0.0, 1.0])
        model = pca_fit(rows, 0.95)
        assert model.components.shape[1] == 1

    def test_isotropic_cloud_needs_both(self):
        rows = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        model = pca_fit(rows, 1.0)
        assert model.components.shape[1] == 2

    def test_full_rank_projection_is_lossless(self, rng):
        rows = rng.normal(size=(50, 6))
        model = pca_fit(rows, 1.0)
        assert model.components.shape[1] == 6
        back = pca_transform(model, rows) @ model.components.T + model.mean
        assert np.max(np.abs(back - rows)) < 1e-8

    def test_rank_zero_flagged(self):
        rows = np.ones((5, 3))
        with pytest.warns(UserWarning):
            model = pca_fit(rows, 0.95)
        assert model.components.shape[1] == 1
        assert model.explained_variance[0] == 0.0

    def test_components_orthonormal(self, rng):
        rows = rng.normal(size=(30, 4)) @ rng.normal(size=(4, 4))
        model = pca_fit(rows, 1.0)
        gram = model.components.T @ model.components
        assert np.max(np.abs(gram - np.eye(gram.shape[0]))) < 1e-8

    def test_explained_variance_nonincreasing(self, rng):
        rows = rng.normal(size=(30, 5)) * np.array([3.0, 2.0, 1.0, 0.5, 0.1])
        model = pca_fit(rows, 1.0)
        ev = model.explained_variance
        assert np.all(np.diff(ev) <= 1e-12)

    def test_too_few_rows_rejected(self):
        with pytest.raises(DataError):
            pca_fit(np.ones((1, 3)), 0.95)

    def test_invalid_target_rejected(self, rng):
        with pytest.raises(ConfigError):
            pca_fit(rng.normal(size=(5, 2)), 0.0)


def test_all_pairs_count():
    p = all_pairs(5)
    assert p.shape == (10, 2)
    assert np.all(p[:, 0] < p[:, 1])
