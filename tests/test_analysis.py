"""Likelihood identities and the expected-disagreement estimator."""
import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import norm

from edgeclust.analysis import empirical_dis, expected_dis, log_likelihood
from edgeclust.core import validate_partition
from edgeclust.corrclust import brute_force_optimum, c1_constant
from edgeclust.datagen import EdgeLevelSpec, gen_edge_level
from edgeclust.densities import GaussianDensity, UniformBoxDensity
from edgeclust.density import build_signed_graph, kde_fit
from edgeclust.edge_features import EdgeFeatureSet, all_pairs
from edgeclust.errors import ConfigError, DataError


def _kde_instance(seed, n=5):
    """Random KDE densities plus edge features over a complete small graph."""
    rng = np.random.default_rng(seed)
    p1 = kde_fit(rng.normal(0.0, 1.0, size=(200, 2)))
    p0 = kde_fit(rng.normal(1.5, 1.2, size=(200, 2)))
    feats = EdgeFeatureSet(pairs=all_pairs(n),
                           vectors=rng.normal(0.5, 1.5,
                                              size=(n * (n - 1) // 2, 2)))
    return p1, p0, feats, rng


class TestLogLikelihood:
    def test_tied_pair_is_indifferent(self):
        p1 = UniformBoxDensity(low=[0.0], high=[2.0])
        feats = EdgeFeatureSet(pairs=np.array([[0, 1]]),
                               vectors=np.array([[1.0]]))
        same = log_likelihood(validate_partition([1, 1]), feats, p1, p1)
        apart = log_likelihood(validate_partition([1, 2]), feats, p1, p1)
        assert same.log_likelihood_theta == pytest.approx(
            apart.log_likelihood_theta)
        assert same.disagreement_term == 0.0

    def test_matching_partition_attains_g0(self):
        # disjoint supports: the true partition matches every log-odds sign
        p1 = UniformBoxDensity(low=[0.0], high=[1.0])
        p0 = UniformBoxDensity(low=[2.0], high=[3.0])
        spec = EdgeLevelSpec(sizes=[3, 3], p1=p1, p0=p0)
        feats, truth = gen_edge_level(spec, np.random.default_rng(1))
        rep = log_likelihood(truth, feats, p1, p0)
        assert rep.disagreement_term == pytest.approx(0.0, abs=1e-12)
        assert rep.log_likelihood_theta == pytest.approx(rep.log_likelihood_g0)

    def test_eq2_identity_kde_instance(self):
        # Eq. 2: l(theta) = l(G0) - disagreement term, both sides computed
        # independently
        p1, p0, feats, rng = _kde_instance(3)
        for _ in range(5):
            labels = rng.integers(1, 4, size=5)
            rep = log_likelihood(validate_partition(labels), feats, p1, p0)
            l1 = p1.logpdf_many(feats.vectors)
            l0 = p0.logpdf_many(feats.vectors)
            theta = (labels[feats.pairs[:, 0]] == labels[feats.pairs[:, 1]])
            direct = float(np.sum(np.where(theta, l1, l0)))
            assert rep.log_likelihood_theta == pytest.approx(direct, abs=1e-10)
            assert abs(rep.log_likelihood_theta
                       - (rep.log_likelihood_g0 - rep.disagreement_term)) < 1e-8
            assert rep.disagreement_term >= 0.0

    def test_evaluated_log_densities_give_identical_results(self):
        # the pipeline passes the graph stage's arrays on to the likelihood
        p1, p0, feats, rng = _kde_instance(5, n=7)
        logs = p1.logpdf_many(feats.vectors), p0.logpdf_many(feats.vectors)
        g, g_logs = (build_signed_graph(feats, a, b, sparsify_below=0.2)
                     for a, b in ((p1, p0), logs))
        for field in ("pairs", "signs", "costs", "dropped"):
            assert np.array_equal(getattr(g, field), getattr(g_logs, field))
        part = validate_partition(rng.integers(1, 4, size=7))
        assert (log_likelihood(part, feats, p1, p0)
                == log_likelihood(part, feats, *logs))
        with pytest.raises(DataError, match="one value per pair"):
            log_likelihood(part, feats, logs[0][:-1], p0)

    def test_theorem1_certificate_bound(self):
        # l(theta_hat) >= l(G0) - c1*ln(n+1)*DIS_opt with the exact oracle
        p1, p0, feats, _ = _kde_instance(11, n=6)
        g = build_signed_graph(feats, p1, p0, n=6)
        part, opt = brute_force_optimum(g)
        rep = log_likelihood(part, feats, p1, p0)
        bound = rep.log_likelihood_g0 - c1_constant(6) * math.log(7) * opt
        assert rep.log_likelihood_theta >= bound - 1e-8

    def test_out_of_range_pairs_rejected(self):
        p1 = UniformBoxDensity(low=[0.0], high=[1.0])
        feats = EdgeFeatureSet(pairs=np.array([[0, 2]]),
                               vectors=np.array([[0.5]]))
        with pytest.raises(DataError):
            log_likelihood(validate_partition([1, 1]), feats, p1, p1)


class TestEmpiricalDis:
    def test_disjoint_supports_zero(self, rng):
        p1 = UniformBoxDensity(low=[0.0], high=[1.0])
        p0 = UniformBoxDensity(low=[2.0], high=[3.0])
        feats, truth = gen_edge_level(EdgeLevelSpec(sizes=[4, 4], p1=p1, p0=p0),
                                      rng)
        g = build_signed_graph(feats, p1, p0)
        assert empirical_dis(g, truth) == 0.0

    def test_identical_densities_zero(self, rng):
        p = UniformBoxDensity(low=[0.0], high=[1.0])
        feats, truth = gen_edge_level(EdgeLevelSpec(sizes=[4, 4], p1=p, p0=p),
                                      rng)
        g = build_signed_graph(feats, p, p)
        assert empirical_dis(g, truth) == 0.0

    def test_gaussian_case_positive(self, rng):
        p1 = GaussianDensity(mean=[0.0], sigma=[1.0])
        p0 = GaussianDensity(mean=[2.0], sigma=[1.0])
        feats, truth = gen_edge_level(EdgeLevelSpec(sizes=[5, 5], p1=p1, p0=p0),
                                      rng)
        g = build_signed_graph(feats, p1, p0)
        val = empirical_dis(g, truth)
        assert np.isfinite(val) and val > 0.0


class TestExpectedDis:
    def test_identical_densities(self, rng):
        p = GaussianDensity(mean=[0.0], sigma=[1.0])
        rep = expected_dis(p, p, n1=10, n0=10, samples=2000, rng=rng)
        assert abs(rep.estimate) <= max(3 * rep.std_error, 1e-12)

    def test_disjoint_supports_exact_zero(self, rng):
        p1 = UniformBoxDensity(low=[0.0], high=[1.0])
        p0 = UniformBoxDensity(low=[2.0], high=[3.0])
        rep = expected_dis(p1, p0, n1=10, n0=10, samples=2000, rng=rng)
        assert rep.estimate == 0.0
        assert rep.std_error == 0.0

    def test_gaussian_matches_quadrature(self, rng):
        # independent 1-D quadrature oracle over the dominated regions
        p1 = GaussianDensity(mean=[0.0], sigma=[1.0])
        p0 = GaussianDensity(mean=[2.0], sigma=[1.0])
        rep = expected_dis(p1, p0, n1=1, n0=1, samples=50000, rng=rng)
        i1 = quad(lambda e: (norm.logpdf(e, 2) - norm.logpdf(e, 0))
                  * norm.pdf(e, 0), 1.0, np.inf)[0]
        i0 = quad(lambda e: (norm.logpdf(e, 0) - norm.logpdf(e, 2))
                  * norm.pdf(e, 2), -np.inf, 1.0)[0]
        assert abs(rep.estimate - (i1 + i0)) <= 3 * rep.std_error

    def test_nonnegative_up_to_noise(self, rng):
        p1 = GaussianDensity(mean=[0.0, 0.0], sigma=[1.0, 2.0])
        p0 = GaussianDensity(mean=[1.0, -1.0], sigma=[2.0, 1.0])
        rep = expected_dis(p1, p0, n1=7, n0=3, samples=5000, rng=rng)
        assert rep.estimate >= -3 * rep.std_error

    def test_sample_floor_enforced(self, rng):
        p = GaussianDensity(mean=[0.0], sigma=[1.0])
        with pytest.raises((ConfigError, DataError)):
            expected_dis(p, p, n1=1, n0=1, samples=10, rng=rng)

    def test_seeded_estimate_pinned(self):
        # values of the 16-substream estimator before its worker pool was
        # removed; 4001 samples split unevenly across the substreams
        p1 = GaussianDensity(mean=[0.0], sigma=[1.0])
        p0 = GaussianDensity(mean=[1.0], sigma=[1.0])
        for samples, estimate, std_error in (
                (4000, 1.3689673623812708, 0.03247508896168749),
                (4001, 1.3694699683821305, 0.032475140108611904)):
            rep = expected_dis(p1, p0, n1=3, n0=4, samples=samples,
                               rng=np.random.default_rng(5))
            assert (rep.estimate, rep.std_error) == (estimate, std_error)

    def test_report_serialization(self, rng):
        p = GaussianDensity(mean=[0.0], sigma=[1.0])
        rep = expected_dis(p, p, n1=2, n0=2, samples=1000, rng=rng)
        d = rep.to_dict()
        assert set(d) == {"n0", "n1", "estimate", "std_error", "sample_count"}
        assert d["sample_count"] >= 1000


class TestTheorem2Consistency:
    def test_mean_empirical_matches_expectation(self):
        # over 60 generated graphs the mean psi-relative disagreement lies
        # within 3 combined standard errors of the Monte Carlo expectation
        p1 = GaussianDensity(mean=[0.0], sigma=[1.0])
        p0 = GaussianDensity(mean=[2.0], sigma=[1.0])
        spec = EdgeLevelSpec(sizes=[6, 6], p1=p1, p0=p0)
        rng = np.random.default_rng(17)
        vals = []
        for _ in range(60):
            feats, truth = gen_edge_level(spec, rng)
            g = build_signed_graph(feats, p1, p0)
            vals.append(empirical_dis(g, truth))
        vals = np.array(vals)
        rep = expected_dis(p1, p0, n1=30, n0=36, samples=50000,
                           rng=np.random.default_rng(23))
        sem = vals.std(ddof=1) / math.sqrt(len(vals))
        combined = math.hypot(sem, rep.std_error)
        assert abs(vals.mean() - rep.estimate) <= 3 * combined
