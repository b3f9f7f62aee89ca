"""Edge feature construction: vectorized similarity over node pairs, labeled
pair sampling for training, and PCA reduction of edge features."""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .core import SampleSet, check_pairs, has_duplicate_pairs
from .errors import ConfigError, DataError

SIMILARITY_KINDS = ("abs_diff", "euclidean")

# the names the CLI accepts
SIMILARITY_ALIASES = {"absdiff": "abs_diff", "euclid": "euclidean"}


def canonical_kind(kind: str) -> str:
    kind = SIMILARITY_ALIASES.get(kind, kind)
    if kind not in SIMILARITY_KINDS:
        raise ConfigError(f"unknown similarity kind {kind!r}")
    return kind


@dataclass(frozen=True)
class EdgeFeatureSet:
    """Per-pair edge feature vectors; row order matches pair order."""

    pairs: np.ndarray   # (m, 2) int, i < j, unique
    vectors: np.ndarray  # (m, d) float

    def __post_init__(self):
        pairs = np.asarray(self.pairs, dtype=int)
        vectors = np.asarray(self.vectors, dtype=float)
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            raise DataError("pairs must be an (m, 2) index array")
        if vectors.ndim != 2 or vectors.shape[0] != pairs.shape[0]:
            raise DataError("vectors must align with pairs row for row")
        if vectors.shape[1] < 1:
            raise DataError("edge feature dimension must be >= 1")
        if pairs.shape[0] and not np.all(pairs[:, 0] < pairs[:, 1]):
            raise DataError("pairs must satisfy i < j")
        if has_duplicate_pairs(pairs):
            raise DataError("duplicate pairs in edge feature set")
        if not np.all(np.isfinite(vectors)):
            raise DataError("edge feature vectors must be finite")
        object.__setattr__(self, "pairs", pairs)
        object.__setattr__(self, "vectors", vectors)

    def __len__(self) -> int:
        return self.pairs.shape[0]


@dataclass(frozen=True)
class PcaModel:
    mean: np.ndarray
    components: np.ndarray          # (d, r), orthonormal columns
    explained_variance: np.ndarray  # (r,), nonincreasing


def edge_vectors(features: np.ndarray, pairs: np.ndarray,
                 kind: str = "abs_diff") -> np.ndarray:
    """Symmetric edge feature for each pair (i, j) of rows of ``features``,
    with 0 <= i < j < n.

    abs_diff: elementwise absolute difference (d = d_node).
    euclidean: 1-dimensional L2 distance.
    """
    kind = canonical_kind(kind)
    pairs = check_pairs(pairs, features.shape[0])
    diff = features[pairs[:, 0]] - features[pairs[:, 1]]
    if kind == "abs_diff":
        return np.abs(diff)
    return np.linalg.norm(diff, axis=1, keepdims=True)


def all_pairs(n: int) -> np.ndarray:
    iu = np.triu_indices(n, k=1)
    return np.column_stack(iu).astype(int)


def build_edge_features(s: SampleSet, pairs: np.ndarray,
                        kind: str = "abs_diff") -> EdgeFeatureSet:
    return EdgeFeatureSet(pairs=pairs, vectors=edge_vectors(s.features, pairs, kind))


def sample_ranks(total: int, m: int, rng: np.random.Generator) -> np.ndarray:
    """m distinct ranks drawn uniformly from 0..total-1, sorted; every rank,
    with nothing drawn, when m >= total."""
    if m >= total:
        return np.arange(total)
    return np.sort(rng.choice(total, size=m, replace=False))


def unrank_pairs(n: int, ranks) -> np.ndarray:
    """all_pairs(n)[ranks], without building all_pairs(n)."""
    rows = np.arange(n)
    starts = rows * (2 * n - rows - 1) // 2  # rank of the first pair of row i
    i = np.searchsorted(starts, ranks, side="right") - 1
    return np.column_stack([i, ranks - starts[i] + i + 1])


def sample_pairs(s: SampleSet, m: int, rng: np.random.Generator):
    """Draw m pairs uniformly without replacement (all of them if m exceeds
    C(n,2)); returns the (m, 2) pairs and their ground-truth co-membership
    bits."""
    if s.labels is None:
        raise DataError("sample set has no labels; cannot label pairs")
    if m < 1:
        raise DataError("need at least one training pair")
    if s.n < 2:
        raise DataError("need at least two samples to form pairs")
    counts = np.bincount(s.labels)
    has_same = np.any(counts >= 2)
    has_diff = len(np.unique(s.labels)) >= 2
    if not (has_same and has_diff):
        raise DataError("labeling is degenerate: need at least one "
                        "same-cluster and one cross-cluster pair")
    pairs = unrank_pairs(s.n, sample_ranks(s.n * (s.n - 1) // 2, m, rng))
    return pairs, s.labels[pairs[:, 0]] == s.labels[pairs[:, 1]]


def sample_labeled_pairs(s: SampleSet, m: int, rng: np.random.Generator,
                         kind: str = "abs_diff"):
    """Draw m pairs with sample_pairs; returns their edge vectors and
    ground-truth co-membership bits."""
    pairs, same = sample_pairs(s, m, rng)
    return edge_vectors(s.features, pairs, kind), same


def pca_fit(vectors: np.ndarray, variance_target: float = 0.95) -> PcaModel:
    """PCA keeping the smallest component count whose cumulative explained
    variance reaches ``variance_target``."""
    vectors = np.asarray(vectors, dtype=float)
    if vectors.ndim != 2 or vectors.shape[0] < 2:
        raise DataError("PCA needs at least two rows")
    if not (0.0 < variance_target <= 1.0):
        raise ConfigError("variance_target must be in (0, 1]")
    mean = vectors.mean(axis=0)
    centered = vectors - mean
    cov = centered.T @ centered / (vectors.shape[0] - 1)
    evals, evecs = np.linalg.eigh(cov)
    order = np.argsort(evals)[::-1]
    evals = np.clip(evals[order], 0.0, None)
    evecs = evecs[:, order]
    # deterministic sign: largest-magnitude entry of each component positive
    flip = np.sign(evecs[np.argmax(np.abs(evecs), axis=0), np.arange(evecs.shape[1])])
    flip[flip == 0] = 1.0
    evecs = evecs * flip
    total = evals.sum()
    if total <= 0.0:
        warnings.warn("all rows identical: PCA keeps one zero-variance component")
        return PcaModel(mean=mean, components=evecs[:, :1],
                        explained_variance=np.zeros(1))
    cum = np.cumsum(evals) / total
    r = int(np.searchsorted(cum, variance_target - 1e-12) + 1)
    r = min(r, evals.size)
    return PcaModel(mean=mean, components=evecs[:, :r],
                    explained_variance=evals[:r])


def pca_transform(model: PcaModel, vectors: np.ndarray) -> np.ndarray:
    vectors = np.asarray(vectors, dtype=float)
    if vectors.shape[1] != model.mean.size:
        raise DataError("dimension mismatch in pca_transform")
    return (vectors - model.mean) @ model.components
