"""Parametric edge-feature densities: product Gaussians, uniform boxes, and
mixtures. Used by the edge-level generator and the expected-disagreement
estimator; anything exposing sample() and logpdf_many() works where these do.
"""
from __future__ import annotations

from dataclasses import dataclass, field
import numpy as np

from .errors import ConfigError, DataError

LOG_FLOOR = float(np.log(1e-20))  # ~ -46.05


def _as_matrix(x, d: int) -> np.ndarray:
    """Query points of dimension d as an (m, d) matrix; a flat query holds
    size/d points. Every logpdf_many coerces its queries here."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 1 and x.size % d == 0:
        x = x.reshape(-1, d)
    if x.ndim != 2 or x.shape[1] != d:
        raise DataError(f"expected points of dimension {d}")
    return x


@dataclass(frozen=True)
class GaussianDensity:
    """Product (diagonal-covariance) Gaussian."""

    mean: np.ndarray
    sigma: np.ndarray

    def __post_init__(self):
        mean = np.atleast_1d(np.asarray(self.mean, dtype=float))
        sigma = np.atleast_1d(np.asarray(self.sigma, dtype=float))
        if (sigma.shape != mean.shape or mean.ndim != 1 or not mean.size
                or not np.isfinite([mean, sigma]).all() or np.any(sigma <= 0)):
            raise ConfigError("mean and sigma must be finite, nonempty vectors "
                              "of one length, sigma > 0")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "sigma", sigma)

    @property
    def d(self) -> int:
        return self.mean.size

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.normal(self.mean, self.sigma, size=(size, self.d))

    def logpdf_many(self, x) -> np.ndarray:
        x = _as_matrix(x, self.d)
        z = (x - self.mean) / self.sigma
        return (-0.5 * np.sum(z * z, axis=1)
                - np.sum(np.log(self.sigma * np.sqrt(2 * np.pi))))


@dataclass(frozen=True)
class UniformBoxDensity:
    """Uniform density on an axis-aligned box; log-density outside the box is
    the global floor (supports exact disjoint-support constructions)."""

    low: np.ndarray
    high: np.ndarray

    def __post_init__(self):
        low = np.atleast_1d(np.asarray(self.low, dtype=float))
        high = np.atleast_1d(np.asarray(self.high, dtype=float))
        if (high.shape != low.shape or low.ndim != 1 or not low.size
                or not np.isfinite([low, high]).all() or np.any(high <= low)):
            raise ConfigError("box must be nonempty vectors low and high of one "
                              "length, finite, with high > low in every dimension")
        object.__setattr__(self, "low", low)
        object.__setattr__(self, "high", high)

    @property
    def d(self) -> int:
        return self.low.size

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.uniform(self.low, self.high, size=(size, self.d))

    def logpdf_many(self, x) -> np.ndarray:
        x = _as_matrix(x, self.d)
        inside = np.all((x >= self.low) & (x <= self.high), axis=1)
        level = -float(np.sum(np.log(self.high - self.low)))
        return np.where(inside, level, LOG_FLOOR)


@dataclass(frozen=True)
class MixtureDensity:
    components: tuple
    weights: np.ndarray = field(default=None)

    def __post_init__(self):
        comps = tuple(self.components)
        if not comps:
            raise ConfigError("mixture needs at least one component")
        d = comps[0].d
        if any(c.d != d for c in comps):
            raise ConfigError("mixture components must share a dimension")
        if self.weights is None:
            weights = np.full(len(comps), 1.0 / len(comps))
        else:
            weights = np.asarray(self.weights, dtype=float)
            if (weights.shape != (len(comps),)
                    or not np.all(np.isfinite(weights) & (weights > 0))):
                raise ConfigError("weights must be finite, positive, one per component")
            weights = weights / weights.max()  # the sum cannot overflow
            weights = weights / weights.sum()
        object.__setattr__(self, "components", comps)
        object.__setattr__(self, "weights", weights)

    @property
    def d(self) -> int:
        return self.components[0].d

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        counts = rng.multinomial(size, self.weights)
        chunks = [c.sample(rng, int(m)) for c, m in zip(self.components, counts)]
        out = np.concatenate(chunks, axis=0)
        return out[rng.permutation(size)]

    def logpdf_many(self, x) -> np.ndarray:
        x = _as_matrix(x, self.d)
        logs = np.stack([c.logpdf_many(x) for c in self.components], axis=1)
        # scipy's logsumexp(logs, axis=1, b=weights): a zero weight adds nothing
        logs[:, self.weights == 0] = -np.inf
        top = logs.max(axis=1, keepdims=True)
        at_top = logs == top
        m = np.sum(self.weights * at_top, axis=1)  # weight of the row max
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            s = np.sum(self.weights * np.exp(np.where(at_top, -np.inf, logs) - top), 1)
            out = np.log1p(s / m) + np.log(m) + top[:, 0]
            direct = np.log(np.sum(self.weights * np.exp(logs), axis=1))
        return np.where(np.isfinite(out), out, direct)  # all -inf, NaN, +inf rows


def parse_density(spec: dict):
    """Build a density from a JSON-style descriptor.

    {"kind": "gaussian", "mean": [...], "sigma": [...]}
    {"kind": "uniform", "low": [...], "high": [...]}
    {"kind": "mixture", "components": [...], "weights": [...]}
    """
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError("density spec must be a dict with a 'kind'")
    kind = spec["kind"]
    try:
        if kind == "gaussian":
            return GaussianDensity(mean=spec["mean"], sigma=spec["sigma"])
        if kind == "uniform":
            return UniformBoxDensity(low=spec["low"], high=spec["high"])
        if kind == "mixture":
            comps = tuple(parse_density(c) for c in spec["components"])
            return MixtureDensity(components=comps, weights=spec.get("weights"))
    except KeyError as exc:
        raise ConfigError(f"{kind} density spec lacks {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{kind} density spec: {exc}") from None
    raise ConfigError(f"unknown density kind {kind!r}")
