"""End-to-end pipeline: sample training pairs, fit edge densities, build the
signed log-odds graph over hold-out samples, cluster, and score.

The stage functions here (synthetic data, model fit, save/load and
projection, clustering) are also what the CLI subcommands run."""
from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from . import corrclust
from .baselines import SpectralConfig, kmeans, spectral
from .core import SampleSet, co_membership, score, validate_partition
from .datagen import (SYNTHETIC_KINDS, EdgeLevelSpec, SyntheticSpec,
                      gen_edge_level, gen_synthetic, load_csv)
from .density import DensityModel, build_signed_graph, kde_fit
from .edge_features import (EdgeFeatureSet, PcaModel, all_pairs,
                            build_edge_features, canonical_kind, pca_fit,
                            pca_transform, sample_labeled_pairs)
from .analysis import log_likelihood
from .densities import parse_density
from .errors import ConfigError, DataError, EdgeclustError

ALGORITHMS = ("lp", "pivot", "oracle")


@dataclass(frozen=True)
class RunConfig:
    """Resolved parameters of one pipeline run; every field is echoed into
    the report."""

    dataset: str                 # synthetic kind, csv path, or "edge_level"
    seed: int
    similarity: str = "abs_diff"
    sparsify: float = 0.0
    pca: Optional[float] = None  # variance target, None disables
    algo: str = "lp"
    pairs: int = 5000
    holdout: int = 100
    train_pool: int = 200        # training samples; CSV: 0 = all the rest
    k: Optional[int] = None      # synthetic generation / baseline input
    noise: float = 0.03
    baselines: bool = False
    knn: int = 20
    csv_has_labels: bool = True
    edge_spec: Optional[dict] = None  # sizes + p1/p0 density descriptors

    def __post_init__(self):
        object.__setattr__(self, "similarity", canonical_kind(self.similarity))
        if self.algo not in ALGORITHMS:
            raise ConfigError(f"unknown algorithm {self.algo!r}")
        if self.pca is not None and not (0.0 < self.pca <= 1.0):
            raise ConfigError("pca variance target must be in (0, 1]")
        if self.pairs < 1:
            raise ConfigError("need at least one training pair")
        if self.holdout < 2:
            raise ConfigError("need at least two hold-out samples")
        if self.train_pool < 0:
            raise ConfigError("train_pool must be >= 0 (0: every non-hold-out "
                              "CSV row)")
        if self.dataset in SYNTHETIC_KINDS and self.train_pool < 2:
            raise ConfigError("synthetic data needs train_pool >= 2")


@dataclass(frozen=True)
class ResultsReport:
    config: dict
    labels: list
    k_predicted: int
    scores: dict                       # method name -> ScoreReport dict
    certificate: Optional[dict]
    likelihood: Optional[dict]
    timing: dict                       # stage -> wall seconds

    def to_dict(self, include_timing: bool = True) -> dict:
        out = asdict(self)
        if not include_timing:
            del out["timing"]
        return out

    def to_json(self, include_timing: bool = True) -> str:
        return json.dumps(self.to_dict(include_timing), sort_keys=True, indent=2)


def _stage(name, timing, fn):
    start = time.perf_counter()
    try:
        result = fn()
    except EdgeclustError as exc:
        raise type(exc)(f"[{name}] {exc}") from exc
    timing[name] = time.perf_counter() - start
    return result


def synthetic_data(kind: str, n: int, k: Optional[int], noise: float,
                   rng: np.random.Generator) -> SampleSet:
    """Labeled synthetic samples; k defaults to 6 on grid and 2 elsewhere."""
    if k is None:
        k = 6 if kind == "grid" else 2
    return gen_synthetic(SyntheticSpec(kind=kind, n=n, k=k, noise=noise), rng)


@dataclass(frozen=True)
class EdgeModel:
    """Fitted P1 (same-cluster) and P0 (cross-cluster) edge densities, the
    similarity kind they were fitted on, and the optional PCA applied to
    edge vectors before either density."""

    similarity: str
    p1: DensityModel
    p0: DensityModel
    pca: Optional[PcaModel] = None

    def project(self, features: EdgeFeatureSet) -> EdgeFeatureSet:
        """Edge features in the space the densities were fitted in."""
        if self.pca is None:
            return features
        return EdgeFeatureSet(pairs=features.pairs,
                              vectors=pca_transform(self.pca, features.vectors))


def fit_model(same_vecs: np.ndarray, diff_vecs: np.ndarray, similarity: str,
              pca: Optional[float] = None) -> EdgeModel:
    """KDE fits of P1 and P0 on labeled training edge vectors, after a PCA
    with variance target ``pca`` fitted on both sides together."""
    if same_vecs.shape[0] < 2 or diff_vecs.shape[0] < 2:
        raise DataError("need >= 2 same-cluster and >= 2 cross-cluster "
                        "training pairs; increase the pair budget")
    pca_model = None
    if pca is not None:
        pca_model = pca_fit(np.vstack([same_vecs, diff_vecs]), pca)
        same_vecs = pca_transform(pca_model, same_vecs)
        diff_vecs = pca_transform(pca_model, diff_vecs)
    return EdgeModel(similarity=canonical_kind(similarity),
                     p1=kde_fit(same_vecs), p0=kde_fit(diff_vecs),
                     pca=pca_model)


def save_model(model: EdgeModel, path) -> None:
    """Write the model as .npz with keys similarity, pca_mean,
    pca_components, pca_variance (only with PCA), p1_points, p1_bw,
    p0_points and p0_bw."""
    payload = {"similarity": np.array(model.similarity)}
    if model.pca is not None:
        payload.update(pca_mean=model.pca.mean,
                       pca_components=model.pca.components,
                       pca_variance=model.pca.explained_variance)
    payload.update(p1_points=model.p1.training_points, p1_bw=model.p1.bandwidths,
                   p0_points=model.p0.training_points, p0_bw=model.p0.bandwidths)
    np.savez(path, **payload)


def load_model(path) -> EdgeModel:
    with np.load(path) as data:
        pca = None
        if "pca_mean" in data:
            pca = PcaModel(mean=data["pca_mean"],
                           components=data["pca_components"],
                           explained_variance=data["pca_variance"])
        return EdgeModel(
            similarity=str(data["similarity"]),
            p1=DensityModel(training_points=data["p1_points"],
                            bandwidths=data["p1_bw"]),
            p0=DensityModel(training_points=data["p0_points"],
                            bandwidths=data["p0_bw"]),
            pca=pca)


def cluster_graph(graph, algo: str, rng: np.random.Generator):
    """Partition the signed graph with one of ALGORITHMS; returns the
    partition and, for "lp" only, its certificate (None otherwise)."""
    if algo == "lp":
        return corrclust.solve(graph)
    if algo == "pivot":
        return corrclust.kwik_cluster(graph, rng), None
    if graph.n > corrclust.ORACLE_MAX_N:
        raise ConfigError("oracle algorithm is capped at "
                          f"n = {corrclust.ORACLE_MAX_N}")
    part, _ = corrclust.brute_force_optimum(graph)
    return part, None


def _prepare_node_level(cfg: RunConfig, rng: np.random.Generator):
    synthetic = cfg.dataset in SYNTHETIC_KINDS
    if synthetic:
        full = synthetic_data(cfg.dataset, cfg.train_pool + cfg.holdout,
                              cfg.k, cfg.noise, rng)
    else:
        full = load_csv(cfg.dataset, has_labels=cfg.csv_has_labels)
        if full.labels is None:
            raise DataError("training pairs need labeled data")
        if full.n < cfg.holdout + 2:
            raise DataError("dataset too small for the requested hold-out size")
    perm = rng.permutation(full.n)
    hold_idx = np.sort(perm[:cfg.holdout])
    train_idx = np.sort(perm[cfg.holdout:])
    if not synthetic:
        train_idx = train_idx[:max(cfg.train_pool, 2)] if cfg.train_pool else train_idx
    train = SampleSet(features=full.features[train_idx],
                      labels=validate_partition(full.labels[train_idx]).labels)
    holdout = SampleSet(features=full.features[hold_idx],
                        labels=validate_partition(full.labels[hold_idx]).labels)
    return train, holdout


def _edge_level_pairs(features: EdgeFeatureSet, truth, m: int,
                      rng: np.random.Generator):
    """Training edge vectors: a uniform subsample of m generated edges,
    split by the planted partition."""
    total = len(features)
    chosen = np.sort(rng.choice(total, size=min(m, total), replace=False))
    same = co_membership(truth, features.pairs[chosen])
    return features.vectors[chosen][same], features.vectors[chosen][~same]


def _scores(cfg: RunConfig, partition, truth, holdout_set,
            rng: np.random.Generator) -> dict:
    scores = {"structured": score(partition, truth).to_dict()}
    if cfg.baselines and holdout_set is not None:
        k = cfg.k if cfg.k is not None else truth.k
        scores["kmeans"] = score(kmeans(holdout_set, k, rng), truth).to_dict()
        scores["spectral"] = score(
            spectral(holdout_set, SpectralConfig(k=k, knn=cfg.knn), rng),
            truth).to_dict()
    return scores


def run_pipeline(cfg: RunConfig) -> ResultsReport:
    """Run every stage under one seeded generator; deterministic per config."""
    rng = np.random.default_rng(cfg.seed)
    timing: dict = {}

    if cfg.dataset == "edge_level":
        if cfg.edge_spec is None:
            raise ConfigError("edge_level dataset needs an edge_spec")
        spec = EdgeLevelSpec(sizes=cfg.edge_spec["sizes"],
                             p1=parse_density(cfg.edge_spec["p1"]),
                             p0=parse_density(cfg.edge_spec["p0"]))
        features, truth = _stage("data", timing, lambda: gen_edge_level(spec, rng))
        holdout_set = None
        same_vecs, diff_vecs = _stage(
            "pairs", timing,
            lambda: _edge_level_pairs(features, truth, cfg.pairs, rng))
    else:
        train, holdout_set = _stage("data", timing,
                                    lambda: _prepare_node_level(cfg, rng))
        truth = validate_partition(holdout_set.labels)
        training = _stage(
            "pairs", timing,
            lambda: sample_labeled_pairs(train, cfg.pairs, rng, cfg.similarity))
        same_vecs, diff_vecs = training.same_vectors, training.diff_vectors
        features = _stage(
            "edges", timing,
            lambda: build_edge_features(holdout_set, all_pairs(holdout_set.n),
                                        cfg.similarity))

    model = _stage("fit", timing,
                   lambda: fit_model(same_vecs, diff_vecs, cfg.similarity,
                                     cfg.pca))
    features = model.project(features)

    graph = _stage("graph", timing,
                   lambda: build_signed_graph(features, model.p1, model.p0,
                                              sparsify_below=cfg.sparsify,
                                              n=truth.n))
    partition, certificate = _stage(
        "solve", timing, lambda: cluster_graph(graph, cfg.algo, rng))
    scores = _stage("score", timing,
                    lambda: _scores(cfg, partition, truth, holdout_set, rng))
    likelihood = _stage(
        "likelihood", timing,
        lambda: log_likelihood(partition, features, model.p1, model.p0).to_dict())

    report = ResultsReport(
        config=asdict(cfg),
        labels=[int(v) for v in partition.labels],
        k_predicted=partition.k,
        scores=scores,
        certificate=certificate.to_dict() if certificate is not None else None,
        likelihood=likelihood,
        timing={k: float(v) for k, v in timing.items()},
    )
    _check_finite(report.to_dict(include_timing=False))
    return report


def _check_finite(obj):
    if isinstance(obj, dict):
        for v in obj.values():
            _check_finite(v)
    elif isinstance(obj, list):
        for v in obj:
            _check_finite(v)
    elif isinstance(obj, float) and not np.isfinite(obj):
        raise DataError("report contains a non-finite numeric value")
