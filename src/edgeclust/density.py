"""Kernel density estimation of the intra-cluster (P1) and inter-cluster (P0)
edge distributions, log-odds evaluation, and construction of the weighted
signed graph the clustering step consumes."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import logsumexp

from .core import check_pairs, parse_lines, read_lines, write_lines
from .densities import LOG_FLOOR
from .edge_features import EdgeFeatureSet
from .errors import ConfigError, DataError

LOG_ODDS_CLAMP = 50.0
_QUERY_CHUNK = 256


@dataclass(frozen=True)
class DensityModel:
    """Gaussian product-kernel KDE with per-dimension bandwidths."""

    training_points: np.ndarray  # (m, d)
    bandwidths: np.ndarray       # (d,), strictly positive

    def __post_init__(self):
        pts = np.asarray(self.training_points, dtype=float)
        if pts.ndim != 2 or pts.shape[0] < 1:
            raise DataError("training points must be a nonempty matrix")
        bw = np.asarray(self.bandwidths, dtype=float)
        if bw.shape != (pts.shape[1],) or np.any(bw <= 0):
            raise DataError("bandwidths must be positive, one per dimension")
        object.__setattr__(self, "training_points", pts)
        object.__setattr__(self, "bandwidths", bw)

    @property
    def d(self) -> int:
        return self.training_points.shape[1]

    @property
    def m(self) -> int:
        return self.training_points.shape[0]

    def logpdf_many(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            x = x.reshape(1, -1)
        if x.shape[1] != self.d:
            raise DataError(f"query dimension {x.shape[1]} != model dimension {self.d}")
        const = (-np.sum(np.log(self.bandwidths * np.sqrt(2.0 * np.pi)))
                 - np.log(self.m))
        out = np.empty(x.shape[0])
        for start in range(0, x.shape[0], _QUERY_CHUNK):
            chunk = x[start:start + _QUERY_CHUNK]
            z = (chunk[:, None, :] - self.training_points[None, :, :]) / self.bandwidths
            expo = -0.5 * np.einsum("qmd,qmd->qm", z, z)
            out[start:start + _QUERY_CHUNK] = logsumexp(expo, axis=1) + const
        return np.maximum(out, LOG_FLOOR)


def kde_fit(vectors: np.ndarray) -> DensityModel:
    """Fit a KDE with Scott's-rule per-dimension bandwidths
    h_j = sigma_j * m^(-1/(d+4)), floored for degenerate dimensions."""
    vectors = np.asarray(vectors, dtype=float)
    if vectors.ndim != 2:
        raise DataError("training vectors must be a 2-D matrix")
    m, d = vectors.shape
    if m < 2:
        raise DataError("bandwidth estimation needs >= 2 training points")
    sigma = vectors.std(axis=0, ddof=1)
    h = sigma * m ** (-1.0 / (d + 4))
    h = np.maximum(h, 1e-6 * (1.0 + np.abs(sigma)))
    return DensityModel(training_points=vectors, bandwidths=h)


@dataclass(frozen=True)
class SignedWeightedGraph:
    """Log-odds graph: per-edge sign in {+1,-1} with nonnegative cost, plus
    the pairs sparsified away (zero or below-threshold cost)."""

    n: int
    pairs: np.ndarray    # (m, 2) int, kept edges
    signs: np.ndarray    # (m,) in {+1, -1}
    costs: np.ndarray    # (m,) finite, >= 0
    dropped: np.ndarray = field(default_factory=lambda: np.empty((0, 2), dtype=int))

    def __post_init__(self):
        pairs = np.asarray(self.pairs, dtype=int).reshape(-1, 2)
        signs = np.asarray(self.signs, dtype=int).reshape(-1)
        costs = np.asarray(self.costs, dtype=float).reshape(-1)
        dropped = np.asarray(self.dropped, dtype=int).reshape(-1, 2)
        if not (len(pairs) == len(signs) == len(costs)):
            raise DataError("edge arrays must align")
        if len(signs) and not np.all(np.isin(signs, (-1, 1))):
            raise DataError("kept edge signs must be +1 or -1")
        if np.any(~np.isfinite(costs)) or np.any(costs < 0):
            raise DataError("costs must be finite and nonnegative")
        every = check_pairs(np.vstack([pairs, dropped]), self.n)
        if len(every) != len(np.unique(every, axis=0)):
            raise DataError("a pair appears more than once")
        object.__setattr__(self, "pairs", pairs)
        object.__setattr__(self, "signs", signs)
        object.__setattr__(self, "costs", costs)
        object.__setattr__(self, "dropped", dropped)

    @property
    def edge_count(self) -> int:
        return self.pairs.shape[0]


def build_signed_graph(features: EdgeFeatureSet, p1, p0,
                       sparsify_below: float = 0.0,
                       n: int = None) -> SignedWeightedGraph:
    """Label every pair by the sign of its log-odds log(P1(e)/P0(e)), clamped
    to +-50, and weight it by the absolute log-odds; pairs at or below the
    sparsification threshold (including exact ties P1 = P0) are dropped."""
    if sparsify_below < 0:
        raise ConfigError("sparsify threshold must be >= 0")
    if n is None:
        n = int(features.pairs.max()) + 1 if len(features) else 0
    r = p1.logpdf_many(features.vectors) - p0.logpdf_many(features.vectors)
    r = np.clip(r, -LOG_ODDS_CLAMP, LOG_ODDS_CLAMP)
    costs = np.abs(r)
    signs = np.sign(r).astype(int)
    keep = costs > sparsify_below
    return SignedWeightedGraph(
        n=n,
        pairs=features.pairs[keep],
        signs=signs[keep],
        costs=costs[keep],
        dropped=features.pairs[~keep],
    )


def write_graph_tsv(g: SignedWeightedGraph, path) -> None:
    """Serialize kept edges as ``i<TAB>j<TAB>sign<TAB>cost`` lines (0-indexed,
    LF endings); dropped edges are omitted."""
    write_lines(path, (f"{i}\t{j}\t{s:+d}\t{c:.17g}"
                       for (i, j), s, c in zip(g.pairs, g.signs, g.costs)))


def read_graph_tsv(path, n: int = None) -> SignedWeightedGraph:
    i, j, signs, costs = parse_lines(path, read_lines(path, "\t"),
                                     (int, int, int, float))
    pairs = np.column_stack([i, j]).astype(int)
    if n is None:
        n = int(pairs.max()) + 1 if len(pairs) else 0
    return SignedWeightedGraph(n=n, pairs=pairs, signs=np.array(signs, dtype=int),
                               costs=np.array(costs, dtype=float))
