"""End-to-end pipeline: sample training pairs, fit edge densities, build the
signed log-odds graph over hold-out samples, cluster, and score.

The stage functions here (model fit, save/load and projection, clustering)
are also what the CLI subcommands run."""
from __future__ import annotations

import time
import zipfile
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from . import corrclust
from .baselines import SpectralConfig, kmeans, spectral
from .core import (SampleSet, co_membership, report_json, score,
                   validate_partition)
from .datagen import (SYNTHETIC_KINDS, EdgeLevelSpec, SyntheticSpec,
                      gen_edge_level, gen_synthetic, load_csv)
from .density import (DensityModel, build_signed_graph, check_sparsify,
                      kde_fit, log_density)
from .edge_features import (SIMILARITY_KINDS, EdgeFeatureSet, PcaModel,
                            all_pairs, build_edge_features, canonical_kind,
                            pca_fit, pca_transform, sample_labeled_pairs,
                            sample_ranks)
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
    noise: float = SyntheticSpec.noise
    baselines: bool = False
    knn: int = SpectralConfig.knn
    edge_spec: Optional[dict] = None  # edge_level only: sizes, p1, p0

    def __post_init__(self):
        object.__setattr__(self, "similarity", canonical_kind(self.similarity))
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if self.algo not in ALGORITHMS:
            raise ConfigError(f"unknown algorithm {self.algo!r}")
        check_sparsify(self.sparsify)
        if self.pca is not None and not (0.0 < self.pca <= 1.0):
            raise ConfigError("pca variance target must be in (0, 1]")
        if self.pairs < 1:
            raise ConfigError("need at least one training pair")
        if self.holdout < 2:
            raise ConfigError("need at least two hold-out samples")
        # 2 samples give one pair, never both a same- and a cross-cluster one
        if self.train_pool < 3 and (self.train_pool != 0
                                    or self.dataset in SYNTHETIC_KINDS):
            raise ConfigError("train_pool must be >= 3 (a CSV also takes 0: "
                              "every non-hold-out row)")
        if self.knn < 1:
            raise ConfigError("knn must be >= 1")
        edge_level = self.dataset == "edge_level"
        if (self.edge_spec is not None) != edge_level:
            raise ConfigError("edge_spec is given exactly when the dataset "
                              "is edge_level")
        if edge_level and not (isinstance(self.edge_spec, dict) and
                               {"sizes", "p1", "p0"} <= set(self.edge_spec)):
            raise ConfigError("edge_level dataset needs an edge_spec object "
                              "with sizes, p1 and p0")


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
        return report_json(self.to_dict(include_timing))


def _stage(name, timing, fn):
    start = time.perf_counter()
    try:
        result = fn()
    except EdgeclustError as exc:
        raise type(exc)(f"[{name}] {exc}") from exc
    timing[name] = time.perf_counter() - start
    return result


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


def fit_model(vectors: np.ndarray, same, similarity: str,
              pca: Optional[float] = None) -> EdgeModel:
    """KDE fits of P1 on the training edge vectors whose co-membership bit
    ``same`` is set and of P0 on the rest, after a PCA with variance target
    ``pca`` fitted on both sides together."""
    same = np.asarray(same, dtype=bool)
    same_vecs, diff_vecs = vectors[same], vectors[~same]
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
    """Read a model that save_model wrote; any other file is a DataError."""
    try:
        data = np.load(path)
    except (ValueError, EOFError, zipfile.BadZipFile):  # not .npy/.npz
        data = None
    if not isinstance(data, np.lib.npyio.NpzFile):
        raise DataError(f"{path}: not a model .npz file")
    with data:
        try:
            similarity = str(data["similarity"])
            if similarity not in SIMILARITY_KINDS:
                raise DataError(f"{path}: unknown similarity {similarity!r}")
            pca = None
            if "pca_mean" in data:
                pca = PcaModel(mean=data["pca_mean"],
                               components=data["pca_components"],
                               explained_variance=data["pca_variance"])
                shape = (pca.mean.size, pca.explained_variance.size)
                if pca.components.shape != shape:
                    raise DataError(f"{path}: pca_components has shape "
                                    f"{pca.components.shape}, not {shape}")
            return EdgeModel(
                similarity=similarity,
                p1=DensityModel(training_points=data["p1_points"],
                                bandwidths=data["p1_bw"]),
                p0=DensityModel(training_points=data["p0_points"],
                                bandwidths=data["p0_bw"]),
                pca=pca)
        except KeyError as exc:
            raise DataError(f"{path}: {exc.args[0]}") from None


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
        full = gen_synthetic(SyntheticSpec(
            kind=cfg.dataset, n=cfg.train_pool + cfg.holdout, k=cfg.k,
            noise=cfg.noise), rng)
    else:
        full = load_csv(cfg.dataset, has_labels=True)
        if full.n < cfg.holdout + 2:
            raise DataError("dataset too small for the requested hold-out size")
    perm = rng.permutation(full.n)
    hold_idx = np.sort(perm[:cfg.holdout])
    train_idx = np.sort(perm[cfg.holdout:])
    if not synthetic and cfg.train_pool:
        train_idx = train_idx[:cfg.train_pool]
    train = SampleSet(features=full.features[train_idx],
                      labels=validate_partition(full.labels[train_idx]).labels)
    holdout = SampleSet(features=full.features[hold_idx],
                        labels=validate_partition(full.labels[hold_idx]).labels)
    return train, holdout


def _edge_level_pairs(features: EdgeFeatureSet, truth, m: int,
                      rng: np.random.Generator):
    """Training edge vectors, a uniform subsample of m generated edges, and
    their co-membership bits under the planted partition."""
    chosen = sample_ranks(len(features), m, rng)
    return features.vectors[chosen], co_membership(truth, features.pairs[chosen])


def _scores(cfg: RunConfig, partition, truth, holdout_set,
            rng: np.random.Generator) -> dict:
    scores = {"structured": asdict(score(partition, truth))}
    if cfg.baselines and holdout_set is not None:
        k = cfg.k if cfg.k is not None else truth.k
        scores["kmeans"] = asdict(score(kmeans(holdout_set, k, rng), truth))
        scores["spectral"] = asdict(score(spectral(
            holdout_set, SpectralConfig(k=k, knn=cfg.knn), rng), truth))
    return scores


def run_pipeline(cfg: RunConfig) -> ResultsReport:
    """Run every stage under one seeded generator; deterministic per config."""
    rng = np.random.default_rng(cfg.seed)
    timing: dict = {}

    if cfg.dataset == "edge_level":
        spec = cfg.edge_spec
        spec = EdgeLevelSpec(sizes=spec["sizes"], p1=parse_density(spec["p1"]),
                             p0=parse_density(spec["p0"]))
        features, truth = _stage("data", timing, lambda: gen_edge_level(spec, rng))
        holdout_set = None
        vectors, same = _stage(
            "pairs", timing,
            lambda: _edge_level_pairs(features, truth, cfg.pairs, rng))
    else:
        train, holdout_set = _stage("data", timing,
                                    lambda: _prepare_node_level(cfg, rng))
        truth = validate_partition(holdout_set.labels)
        vectors, same = _stage(
            "pairs", timing,
            lambda: sample_labeled_pairs(train, cfg.pairs, rng, cfg.similarity))
        features = _stage(
            "edges", timing,
            lambda: build_edge_features(holdout_set, all_pairs(holdout_set.n),
                                        cfg.similarity))

    model = _stage("fit", timing,
                   lambda: fit_model(vectors, same, cfg.similarity, cfg.pca))
    features = model.project(features)

    def graph_stage():  # the likelihood stage reuses these log-densities
        logs = [log_density(p, features) for p in (model.p1, model.p0)]
        return logs, build_signed_graph(features, *logs,
                                        sparsify_below=cfg.sparsify, n=truth.n)
    logs, graph = _stage("graph", timing, graph_stage)
    partition, certificate = _stage(
        "solve", timing, lambda: cluster_graph(graph, cfg.algo, rng))
    scores = _stage("score", timing,
                    lambda: _scores(cfg, partition, truth, holdout_set, rng))
    likelihood = _stage(
        "likelihood", timing,
        lambda: asdict(log_likelihood(partition, features, *logs)))

    report = ResultsReport(
        config=asdict(cfg),
        labels=[int(v) for v in partition.labels],
        k_predicted=partition.k,
        scores=scores,
        certificate=asdict(certificate) if certificate is not None else None,
        likelihood=likelihood,
        timing={k: float(v) for k, v in timing.items()},
    )
    report_json(vars(report))  # DataError on a non-finite value
    return report
