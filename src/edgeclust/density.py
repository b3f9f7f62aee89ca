"""Kernel density estimation of the intra-cluster (P1) and inter-cluster (P0)
edge distributions, log-odds evaluation, and construction of the weighted
signed graph the clustering step consumes."""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Optional

import numpy as np

from .core import (check_pairs, has_duplicate_pairs, parse_lines,
                   read_lines, write_lines)
from .densities import LOG_FLOOR, _as_matrix
from .edge_features import EdgeFeatureSet
from .errors import ConfigError, DataError

LOG_ODDS_CLAMP = 50.0
# kernel values logpdf_many holds at once: a chunk of 2^16 // m whole rows
# (512 KiB of doubles) when m <= 2^16, else one row of m values
_CHUNK_ELEMENTS = 2 ** 16
# below log(smallest normal double) ~ -708.4 exp loses digits to subnormals,
# and below ~ -745 it gives 0
_TINY = np.finfo(float).tiny
_LOG_TINY = float(np.log(_TINY))


@dataclass(frozen=True)
class DensityModel:
    """Gaussian product-kernel KDE with per-dimension bandwidths."""

    training_points: np.ndarray  # (m, d)
    bandwidths: np.ndarray       # (d,), strictly positive

    def __post_init__(self):
        pts = np.asarray(self.training_points, dtype=float)
        if pts.ndim != 2 or pts.shape[0] < 1 or not np.all(np.isfinite(pts)):
            raise DataError("training points must be a nonempty finite matrix")
        bw = np.asarray(self.bandwidths, dtype=float)
        if (bw.shape != (pts.shape[1],) or not np.all(np.isfinite(bw))
                or not np.all(bw > 0)):
            raise DataError("bandwidths must be finite and positive, one per "
                            "dimension")
        object.__setattr__(self, "training_points", pts)
        object.__setattr__(self, "bandwidths", bw)

    @property
    def d(self) -> int:
        return self.training_points.shape[1]

    @property
    def m(self) -> int:
        return self.training_points.shape[0]

    def logpdf_many(self, x) -> np.ndarray:
        """log of the mean of the Gaussian kernels at each query, floored at
        LOG_FLOOR; a NaN query gives NaN."""
        x = _as_matrix(x, self.d)
        # -|q-p|^2/2 = [q, 1, |q|^2/2] . [p, -|p|^2/2, -1] in bandwidth units,
        # so one GEMM per chunk gives every exponent. Centering at the
        # training mean first keeps |q|^2 and |p|^2 near the data's own
        # spread, so the expansion cancels no digits when the data sit far
        # from the origin.
        mean = self.training_points.mean(axis=0)
        pts = (self.training_points - mean) / self.bandwidths
        right = np.vstack([pts.T, -0.5 * np.einsum("md,md->m", pts, pts),
                           np.full(self.m, -1.0)])
        const = (-np.sum(np.log(self.bandwidths * np.sqrt(2.0 * np.pi)))
                 - np.log(self.m))
        rows = max(1, _CHUNK_ELEMENTS // self.m)
        sums = np.empty(x.shape[0])
        shift = np.zeros(x.shape[0])
        buf = np.empty((min(rows, x.shape[0]), self.m))
        ones = np.ones(self.m)
        with np.errstate(over="ignore", invalid="ignore"):
            q = (x - mean) / self.bandwidths
            half_q = 0.5 * np.einsum("qd,qd->q", q, q)
            left = np.column_stack([q, np.ones(len(q)), half_q])
            # three passes a chunk, all in buf: exponents, exp, row sums
            for start in range(0, len(q), rows):
                block = left[start:start + rows]
                expo = np.matmul(block, right, out=buf[:len(block)])
                np.exp(expo, out=expo)
                np.matmul(expo, ones, out=sums[start:start + rows])
            # a row whose largest exponent is below _LOG_TINY sums to at most
            # m * tiny (2 * m * tiny leaves room for rounding), so only these
            # rows can need the log-sum-exp shift by their max; each is
            # recomputed and shifted when that max is below _LOG_TINY
            low = np.flatnonzero(~(sums > 2 * self.m * _TINY))
            for start in range(0, len(low), rows):
                idx = low[start:start + rows]
                expo = np.matmul(left[idx], right, out=buf[:len(idx)])
                top = expo.max(axis=1)
                top[~(top < _LOG_TINY)] = 0.0
                expo -= top[:, None]
                np.exp(expo, out=expo)
                shift[idx] = top
                sums[idx] = expo.sum(axis=1)
            out = np.log(sums) + shift
        # a query whose squared norm overflows is in every kernel's far tail
        out[np.isposinf(half_q)] = -np.inf
        return np.maximum(out + const, LOG_FLOOR)


def kde_fit(vectors: np.ndarray) -> DensityModel:
    """Fit a KDE with Scott's-rule per-dimension bandwidths
    h_j = sigma_j * m^(-1/(d+4)), floored for degenerate dimensions."""
    vectors = np.asarray(vectors, dtype=float)
    if vectors.ndim != 2:
        raise DataError("training vectors must be a 2-D matrix")
    m, d = vectors.shape
    if m < 2:
        raise DataError("bandwidth estimation needs >= 2 training points")
    with np.errstate(over="ignore"):  # an overflowing spread fails below
        sigma = vectors.std(axis=0, ddof=1)
    h = sigma * m ** (-1.0 / (d + 4))
    h = np.maximum(h, 1e-6 * (1.0 + np.abs(sigma)))
    return DensityModel(training_points=vectors, bandwidths=h)


@dataclass(frozen=True)
class SignedWeightedGraph:
    """Log-odds graph: per-edge sign in {+1,-1} with nonnegative cost, plus
    the pairs sparsified away (zero or below-threshold cost). With n None the
    node count is one past the largest node id in any pair."""

    pairs: np.ndarray    # (m, 2) int, kept edges
    signs: np.ndarray    # (m,) in {+1, -1}
    costs: np.ndarray    # (m,) finite, >= 0
    dropped: np.ndarray = field(default_factory=lambda: np.empty((0, 2), dtype=int))
    n: Optional[int] = None

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
        every = np.vstack([pairs, dropped])
        n = self.n
        if n is None:
            n = int(every.max()) + 1 if len(every) else 0
        if n < 0:
            raise DataError(f"node count must be >= 0, got {n}")
        if has_duplicate_pairs(check_pairs(every, n)):
            raise DataError("a pair appears more than once")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "pairs", pairs)
        object.__setattr__(self, "signs", signs)
        object.__setattr__(self, "costs", costs)
        object.__setattr__(self, "dropped", dropped)


def log_density(p, features: EdgeFeatureSet) -> np.ndarray:
    """log p at each vector of ``features``: a density (anything with
    logpdf_many) is evaluated there, else p is those values, one per pair."""
    if hasattr(p, "logpdf_many"):
        return p.logpdf_many(features.vectors)
    values = np.asarray(p, dtype=float)
    if values.shape != (len(features),):
        raise DataError("log-densities must give one value per pair")
    return values


def check_sparsify(threshold: float) -> None:
    """A sparsification threshold is finite and >= 0, else a ConfigError:
    an infinite one would drop every pair."""
    if not 0.0 <= threshold < np.inf:
        raise ConfigError("sparsify threshold must be finite and >= 0")


def build_signed_graph(features: EdgeFeatureSet, p1, p0,
                       sparsify_below: float = 0.0) -> SignedWeightedGraph:
    """Label every pair by the sign of its log-odds log(P1(e)/P0(e)), clamped
    to +-50, and weight it by the absolute log-odds; pairs at or below the
    sparsification threshold (including exact ties P1 = P0) are dropped. A
    NaN log-odds is a DataError. P1 and P0 are read with log_density."""
    check_sparsify(sparsify_below)
    r = log_density(p1, features) - log_density(p0, features)
    nan = np.flatnonzero(np.isnan(r))
    if len(nan):
        i, j = features.pairs[nan[0]]
        raise DataError(f"log-odds is NaN for pair ({i}, {j})")
    r = np.clip(r, -LOG_ODDS_CLAMP, LOG_ODDS_CLAMP)
    costs = np.abs(r)
    signs = np.sign(r).astype(int)
    keep = costs > sparsify_below
    return SignedWeightedGraph(
        pairs=features.pairs[keep],
        signs=signs[keep],
        costs=costs[keep],
        dropped=features.pairs[~keep],
    )


def write_graph_tsv(g: SignedWeightedGraph, path) -> None:
    """Serialize kept edges as ``i<TAB>j<TAB>sign<TAB>cost`` lines (0-indexed,
    LF endings), then each dropped pair as ``i<TAB>j<TAB>0<TAB>0``."""
    write_lines(path, chain((f"{i}\t{j}\t{s:+d}\t{c:.17g}"
                             for (i, j), s, c in zip(g.pairs, g.signs, g.costs)),
                            (f"{i}\t{j}\t0\t0" for i, j in g.dropped)))


def read_graph_tsv(path) -> SignedWeightedGraph:
    """Read write_graph_tsv's lines; a sign-0 row is a dropped pair and must
    have cost 0. The node count is one past the largest id listed."""
    lines = read_lines(path, "\t")
    i, j, signs, costs = parse_lines(path, lines, (np.int64, np.int64, np.int64, float))
    dropped = signs == 0
    bad = np.flatnonzero(dropped & (costs != 0))
    if len(bad):
        raise DataError(f"{path}:{lines[bad[0]][0]}: dropped pair (sign 0) with a cost")
    pairs = np.column_stack([i, j])
    return SignedWeightedGraph(pairs=pairs[~dropped], signs=signs[~dropped],
                               costs=costs[~dropped], dropped=pairs[dropped])
