"""Likelihood computations on the edge-feature model, the decomposition of
the log-likelihood into the log-odds-graph term minus disagreement costs, and
the restricted-KL expected-disagreement estimator."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Partition, co_membership
from .corrclust import _disagreements, disagreement_cost
from .density import SignedWeightedGraph, log_density
from .edge_features import EdgeFeatureSet
from .errors import DataError

_SUBSTREAMS = 16


@dataclass(frozen=True)
class LikelihoodReport:
    log_likelihood_theta: float
    log_likelihood_g0: float
    disagreement_term: float


@dataclass(frozen=True)
class ExpectedDisReport:
    n0: int
    n1: int
    estimate: float
    std_error: float
    sample_count: int


def log_likelihood(p: Partition, features: EdgeFeatureSet, p1, p0) -> LikelihoodReport:
    """Log-likelihood of a partition and its decomposition against the
    most-likely (generally invalid) pairwise labeling.

    log_likelihood_theta sums theta-selected log-densities over the pairs;
    log_likelihood_g0 takes the larger log-density on every pair; the
    disagreement term collects the absolute log-odds of every pair whose
    co-membership bit contradicts the log-odds sign (ties never disagree).
    P1 and P0 are read with log_density."""
    if len(features) == 0:
        raise DataError("no pairs to evaluate")
    theta = co_membership(p, features.pairs)
    l1, l0 = log_density(p1, features), log_density(p0, features)
    ll_theta = float(np.sum(np.where(theta, l1, l0)))
    ll_g0 = float(np.sum(np.maximum(l1, l0)))
    r = l1 - l0
    term = float(_disagreements(r > 0, np.abs(r), theta))
    return LikelihoodReport(log_likelihood_theta=ll_theta,
                            log_likelihood_g0=ll_g0,
                            disagreement_term=term)


def empirical_dis(g: SignedWeightedGraph, truth: Partition) -> float:
    """Disagreement cost of the log-odds graph against the true partition:
    the quantity whose expectation the restricted-KL formula computes."""
    return disagreement_cost(g, truth)


def _one_sided_terms(p_from, p_to, draws: np.ndarray) -> np.ndarray:
    lf = p_from.logpdf_many(draws)
    lt = p_to.logpdf_many(draws)
    ratio = lt - lf
    return np.where(ratio >= 0.0, ratio, 0.0)


def expected_dis(p1, p0, n1: int, n0: int, samples: int,
                 rng: np.random.Generator) -> ExpectedDisReport:
    """Monte Carlo estimate of the expected disagreement
    -n1*KL(P1||P0)|_{P1<=P0} - n0*KL(P0||P1)|_{P0<=P1}.

    Draws come from _SUBSTREAMS substreams spawned from rng, so the estimate
    depends only on rng and the sample count.
    """
    if samples < 1000:
        raise DataError("need at least 1000 Monte Carlo samples")
    if n1 < 0 or n0 < 0:
        raise DataError("pair counts must be nonnegative")
    seeds = rng.spawn(2 * _SUBSTREAMS)
    terms1, terms0 = [], []
    for t in range(_SUBSTREAMS):
        per = samples // _SUBSTREAMS + (1 if t < samples % _SUBSTREAMS else 0)
        terms1.append(_one_sided_terms(p1, p0, p1.sample(seeds[2 * t], per)))
        terms0.append(_one_sided_terms(p0, p1, p0.sample(seeds[2 * t + 1], per)))
    terms1 = np.concatenate(terms1)
    terms0 = np.concatenate(terms0)

    estimate = n1 * float(terms1.mean()) + n0 * float(terms0.mean())
    var = (n1 ** 2 * float(terms1.var(ddof=1)) / samples
           + n0 ** 2 * float(terms0.var(ddof=1)) / samples)
    return ExpectedDisReport(n0=n0, n1=n1, estimate=estimate,
                             std_error=float(np.sqrt(var)),
                             sample_count=samples)
