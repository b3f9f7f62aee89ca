"""Acceptance gate: one test per criterion, each printing a pass line with
its measured runtime and asserting the stated tolerance and budget."""
import json
import math
import os
import statistics
import time

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import norm

from conftest import random_graph
from edgeclust.analysis import empirical_dis, expected_dis, log_likelihood
from edgeclust.core import SampleSet, validate_partition
from edgeclust.corrclust import (brute_force_optimum, c1_constant,
                                 disagreement_cost, kwik_cluster, lp_relax,
                                 round_regions)
from edgeclust.datagen import EdgeLevelSpec, SyntheticSpec, gen_edge_level, gen_synthetic
from edgeclust.densities import GaussianDensity
from edgeclust.density import build_signed_graph, kde_fit
from edgeclust.edge_features import (all_pairs, build_edge_features,
                                     sample_labeled_pairs)
from edgeclust.pipeline import RunConfig, run_pipeline

SKIN_PATH = os.environ.get("EDGECLUST_SKIN_CSV", "data/skin.csv")

DISJOINT_SPEC = {
    "sizes": [20, 20, 20],
    "p1": {"kind": "uniform", "low": [0.0], "high": [1.0]},
    "p0": {"kind": "uniform", "low": [2.0], "high": [3.0]},
}


def _report(name, elapsed, budget, detail):
    print(f"{name}: PASS ({detail}; {elapsed:.1f}s < {budget:.0f}s)")


def test_criterion_1_eq2_identity():
    """l(theta) from the direct sum equals l(G0) minus the disagreement term
    to 1e-8 on 100 random n=6 instances with KDE densities."""
    start = time.perf_counter()
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(100):
        s = gen_synthetic(SyntheticSpec(kind="blobs", n=30, k=2, noise=0.5), rng)
        vecs, same = sample_labeled_pairs(s, 200, rng)
        p1 = kde_fit(vecs[same])
        p0 = kde_fit(vecs[~same])
        idx = np.sort(rng.choice(s.n, 6, replace=False))
        sub = SampleSet(features=s.features[idx],
                        labels=validate_partition(s.labels[idx]).labels)
        feats = build_edge_features(sub, all_pairs(6))
        labels = rng.integers(1, 4, size=6)
        rep = log_likelihood(validate_partition(labels), feats, p1, p0)
        direct = float(np.sum(np.where(
            labels[feats.pairs[:, 0]] == labels[feats.pairs[:, 1]],
            p1.logpdf_many(feats.vectors), p0.logpdf_many(feats.vectors))))
        gap = abs(direct - (rep.log_likelihood_g0 - rep.disagreement_term))
        worst = max(worst, gap)
        assert gap < 1e-8
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report("criterion 1 (identity)", elapsed, 10,
            f"100 instances, max gap {worst:.2e}")


def test_criterion_2_oracle_sandwich():
    """lp lower bound <= oracle <= rounded <= c1*ln(n+1)*oracle on 50 seeded
    random weighted signed graphs with n in 5..8, each to 1e-6."""
    start = time.perf_counter()
    checked = 0
    for seed in range(50):
        rng = np.random.default_rng(1000 + seed)
        n = 5 + seed % 4
        g = random_graph(n, rng, missing_frac=0.1)
        m = lp_relax(g)
        assert m.max_triangle_violation() <= 1e-6
        _, opt = brute_force_optimum(g)
        rounded = disagreement_cost(g, round_regions(m, g))
        assert m.objective <= opt + 1e-6
        assert opt <= rounded + 1e-6
        if not (opt <= 1e-9 and rounded <= 1e-9):
            assert rounded <= c1_constant(n) * math.log(n + 1) * opt + 1e-6
        checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report("criterion 2 (oracle sandwich)", elapsed, 60,
            f"{checked} graphs, n in 5..8")


def test_criterion_3_theorem2_monte_carlo():
    """Mean empirical disagreement over 200 generated graphs vs the Monte
    Carlo expectation vs 1-D adaptive quadrature, all within 3 std errors."""
    start = time.perf_counter()
    p1 = GaussianDensity(mean=[0.0], sigma=[1.0])
    p0 = GaussianDensity(mean=[2.0], sigma=[1.0])
    spec = EdgeLevelSpec(sizes=[10, 10], p1=p1, p0=p0)
    rng = np.random.default_rng(11)
    vals = []
    for _ in range(200):
        feats, truth = gen_edge_level(spec, rng)
        g = build_signed_graph(feats, p1, p0)
        vals.append(empirical_dis(g, truth))
    vals = np.array(vals)
    rep = expected_dis(p1, p0, n1=90, n0=100, samples=100000,
                       rng=np.random.default_rng(7))
    sem = vals.std(ddof=1) / math.sqrt(len(vals))
    combined = math.hypot(sem, rep.std_error)
    assert abs(vals.mean() - rep.estimate) <= 3 * combined

    i1 = quad(lambda e: (norm.logpdf(e, 2) - norm.logpdf(e, 0))
              * norm.pdf(e, 0), 1.0, np.inf)[0]
    i0 = quad(lambda e: (norm.logpdf(e, 0) - norm.logpdf(e, 2))
              * norm.pdf(e, 2), -np.inf, 1.0)[0]
    quad_value = 90 * i1 + 100 * i0
    assert abs(rep.estimate - quad_value) <= 3 * rep.std_error
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    _report("criterion 3 (Theorem 2 MC)", elapsed, 120,
            f"mean {vals.mean():.2f} vs MC {rep.estimate:.2f} "
            f"vs quad {quad_value:.2f}")


def test_criterion_4_exact_recovery():
    """Disjoint-support edge-level generator, n=60, k=3: NMI 1.0 and
    k_predicted 3 in at least 19 of 20 seeds."""
    start = time.perf_counter()
    hits = 0
    for seed in range(1, 21):
        cfg = RunConfig(dataset="edge_level", seed=seed,
                        edge_spec=DISJOINT_SPEC)
        rep = run_pipeline(cfg)
        if (rep.scores["structured"]["nmi"] == 1.0
                and rep.k_predicted == 3):
            hits += 1
    assert hits >= 19
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    _report("criterion 4 (exact recovery)", elapsed, 300,
            f"{hits}/20 seeds exact")


def test_criterion_5_crossbones_regime():
    """Crossbones regime over 10 seeds, 5000 training pairs, 100 hold-out
    samples: structured median NMI >= 0.9 with k_predicted 2 while both
    baseline medians stay <= 0.6.

    The generator uses thin segments and the pipeline projects the training
    edge vectors with full-variance PCA so the learned bandwidths resolve
    the crossing; hold-out points at the crossing itself stay ambiguous.
    """
    start = time.perf_counter()
    structured, kpreds, km, sp = [], [], [], []
    for seed in range(1, 11):
        cfg = RunConfig(dataset="crossbones", seed=seed, noise=0.001,
                        pca=1.0, baselines=True)
        rep = run_pipeline(cfg)
        structured.append(rep.scores["structured"]["nmi"])
        kpreds.append(rep.k_predicted)
        km.append(rep.scores["kmeans"]["nmi"])
        sp.append(rep.scores["spectral"]["nmi"])
    med = statistics.median(structured)
    assert med >= 0.9
    assert statistics.median(kpreds) == 2
    assert statistics.median(km) <= 0.6
    assert statistics.median(sp) <= 0.6
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0
    _report("criterion 5 (crossbones)", elapsed, 600,
            f"median NMI {med:.3f} vs kmeans {statistics.median(km):.3f} "
            f"/ spectral {statistics.median(sp):.3f}")


@pytest.mark.skipif(not os.path.exists(SKIN_PATH),
                    reason=f"skin dataset not present at {SKIN_PATH} "
                           "(set EDGECLUST_SKIN_CSV); criterion is non-gating")
def test_criterion_6_skin_dataset():
    """With the user-supplied skin segmentation CSV, the structured method's
    NMI exceeds both baselines by at least 0.3 over 5 seeds."""
    start = time.perf_counter()
    gaps = []
    for seed in range(1, 6):
        cfg = RunConfig(dataset=SKIN_PATH, seed=seed, baselines=True, k=2)
        rep = run_pipeline(cfg)
        best_baseline = max(rep.scores["kmeans"]["nmi"],
                            rep.scores["spectral"]["nmi"])
        gaps.append(rep.scores["structured"]["nmi"] - best_baseline)
    mean_gap = statistics.mean(gaps)
    assert mean_gap >= 0.3
    elapsed = time.perf_counter() - start
    _report("criterion 6 (skin dataset)", elapsed, math.inf,
            f"mean NMI gap {mean_gap:.3f}")


def test_criterion_7_kwikcluster_bound():
    """On 30 unit-cost +-1 complete graphs with n <= 8, the 200-seed mean
    cost stays within 3x the oracle cost plus 0.05 per instance."""
    start = time.perf_counter()
    for inst in range(30):
        rng = np.random.default_rng(3000 + inst)
        n = int(rng.integers(4, 9))
        pairs = all_pairs(n)
        signs = np.where(rng.random(len(pairs)) < 0.5, 1, -1)
        from conftest import make_graph
        g = make_graph(n, [(int(i), int(j), int(s), 1.0)
                           for (i, j), s in zip(pairs, signs)])
        _, opt = brute_force_optimum(g)
        costs = [disagreement_cost(g, kwik_cluster(g, np.random.default_rng(s)))
                 for s in range(200)]
        assert float(np.mean(costs)) <= 3.0 * opt + 0.05
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report("criterion 7 (KwikCluster bound)", elapsed, 60, "30 instances")


def test_criterion_8_feasibility_and_determinism():
    """Every returned fractional metric satisfies the triangle inequalities
    to 1e-6, and identical configs plus seeds give byte-identical reports
    with timing excluded."""
    start = time.perf_counter()
    for seed in range(10):
        g = random_graph(8, np.random.default_rng(4000 + seed),
                         missing_frac=0.2)
        assert lp_relax(g).max_triangle_violation() <= 1e-6

    cfg = dict(dataset="blobs", seed=9, holdout=24, train_pool=60,
               pairs=400, noise=0.4, k=2, baselines=True)
    a = run_pipeline(RunConfig(**cfg)).to_json(include_timing=False)
    b = run_pipeline(RunConfig(**cfg)).to_json(include_timing=False)
    assert a == b
    json.loads(a)  # well-formed JSON
    elapsed = time.perf_counter() - start
    _report("criterion 8 (feasibility+determinism)", elapsed, math.inf,
            "10 metrics feasible, reports byte-identical")


def test_criterion_9_scale_run():
    """Full LP pipeline on 100 hold-out nodes (4950 pair variables with lazy
    triangle constraints) completes within 5 minutes."""
    start = time.perf_counter()
    rep = run_pipeline(RunConfig(dataset="crossbones", seed=0))
    elapsed = time.perf_counter() - start
    assert rep.k_predicted >= 1
    assert len(rep.labels) == 100
    assert elapsed < 300.0
    _report("criterion 9 (scale run)", elapsed, 300,
            f"n=100 LP pipeline, k={rep.k_predicted}")
