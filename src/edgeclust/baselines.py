"""k-means and spectral clustering baselines, configured the way the
experiments run them: k-means++ seeding with restarts, and a Gaussian-affinity
mutual-kNN graph with the random-walk Laplacian."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Partition, SampleSet, validate_partition
from .errors import ConfigError, DataError

KMEANS_RESTARTS = 10  # k-means++ runs per clustering; lowest inertia wins
KMEANS_MAX_ITER = 300  # Lloyd iterations per run
KMEANS_TOL = 1e-10  # a run stops once no center moves more (squared)


@dataclass(frozen=True)
class SpectralConfig:
    k: int
    knn: int = 20

    def __post_init__(self):
        if self.knn < 1:
            raise ConfigError("knn must be >= 1")
        if self.k < 1:
            raise ConfigError("k must be >= 1")


def _kmeans_pp_init(x: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = x.shape[0]
    centers = np.empty((k, x.shape[1]))
    centers[0] = x[rng.integers(n)]
    d2 = np.sum((x - centers[0]) ** 2, axis=1)
    for t in range(1, k):
        total = d2.sum()
        if total <= 0:
            centers[t] = x[rng.integers(n)]
            continue
        probs = d2 / total
        centers[t] = x[rng.choice(n, p=probs)]
        d2 = np.minimum(d2, np.sum((x - centers[t]) ** 2, axis=1))
    return centers


def _lloyd(x: np.ndarray, centers: np.ndarray):
    k = centers.shape[0]
    for _ in range(KMEANS_MAX_ITER):
        d2 = np.sum((x[:, None, :] - centers[None, :, :]) ** 2, axis=2)
        labels = np.argmin(d2, axis=1)
        new_centers = centers.copy()
        for c in range(k):
            members = labels == c
            if members.any():
                new_centers[c] = x[members].mean(axis=0)
            else:
                # reseed an empty cluster from the farthest point
                far = int(np.argmax(np.min(d2, axis=1)))
                new_centers[c] = x[far]
        shift = np.max(np.sum((new_centers - centers) ** 2, axis=1))
        centers = new_centers
        if shift <= KMEANS_TOL:
            break
    d2 = np.sum((x[:, None, :] - centers[None, :, :]) ** 2, axis=2)
    labels = np.argmin(d2, axis=1)
    inertia = float(np.sum(np.min(d2, axis=1)))
    return labels, inertia


def kmeans_matrix(x: np.ndarray, k: int, rng: np.random.Generator):
    """Lloyd iterations with k-means++ seeding; the best of KMEANS_RESTARTS
    runs by inertia wins."""
    x = np.asarray(x, dtype=float)
    if k < 1:
        raise ConfigError("k must be >= 1")
    if k > x.shape[0]:
        raise DataError("k must be <= n")
    best_labels, best_inertia = None, np.inf
    for _ in range(KMEANS_RESTARTS):
        centers = _kmeans_pp_init(x, k, rng)
        labels, inertia = _lloyd(x, centers)
        if inertia < best_inertia:
            best_inertia = inertia
            best_labels = labels
    return best_labels, best_inertia


def kmeans(s: SampleSet, k: int, rng: np.random.Generator) -> Partition:
    labels, _ = kmeans_matrix(s.features, k, rng)
    return validate_partition(labels + 1)


def _affinity(x: np.ndarray, cfg: SpectralConfig) -> np.ndarray:
    n = x.shape[0]
    d2 = np.sum((x[:, None, :] - x[None, :, :]) ** 2, axis=2)
    # Gaussian width: the median pairwise distance (1 if that is 0)
    iu = np.triu_indices(n, k=1)
    med = float(np.sqrt(np.median(d2[iu]))) if iu[0].size else 1.0
    sigma = med if med > 0 else 1.0
    w = np.exp(-d2 / (2.0 * sigma ** 2))
    np.fill_diagonal(w, 0.0)
    # mutual kNN: keep w_ij only when each endpoint ranks the other in its
    # knn nearest neighbors
    order = np.argsort(d2 + np.diag(np.full(n, np.inf)), axis=1, kind="stable")
    near = np.zeros((n, n), dtype=bool)
    cols = order[:, :min(cfg.knn, n - 1)]
    near[np.arange(n)[:, None], cols] = True
    full = w.copy()
    w = np.where(near & near.T, w, 0.0)
    # nodes the mutual filter disconnected fall back to their single nearest
    # neighbor; a tiny self-loop keeps degrees positive as a last resort
    isolated = np.flatnonzero(w.sum(axis=1) == 0)
    if isolated.size and n > 1:
        nearest = order[isolated, 0]
        w[isolated, nearest] = full[isolated, nearest]
        w[nearest, isolated] = full[nearest, isolated]
    isolated = w.sum(axis=1) == 0
    w[isolated, isolated] = 1e-8
    return w


def spectral(s: SampleSet, cfg: SpectralConfig, rng: np.random.Generator) -> Partition:
    """Random-walk Laplacian spectral clustering on the mutual-kNN Gaussian
    affinity graph; the k smallest eigenvectors are clustered with k-means."""
    n = s.n
    if cfg.k > n:
        raise DataError("k must be <= n")
    if cfg.k == 1:
        return validate_partition(np.ones(n, dtype=int))
    w = _affinity(s.features, cfg)
    inv_sqrt = 1.0 / np.sqrt(w.sum(axis=1))
    lsym = np.eye(n) - (w * inv_sqrt[:, None]) * inv_sqrt[None, :]
    lsym = 0.5 * (lsym + lsym.T)
    evals, evecs = np.linalg.eigh(lsym)
    # random-walk eigenvectors via degree rescaling of the symmetric ones
    embed = evecs[:, :cfg.k] * inv_sqrt[:, None]
    labels, _ = kmeans_matrix(embed, cfg.k, rng)
    return validate_partition(labels + 1)
