"""Synthetic dataset generators (node-level 2-D shapes and a direct
edge-level planted-partition sampler) plus CSV ingestion for real data."""
from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass
from numbers import Integral
from typing import Optional, Sequence

import numpy as np

from .core import (SampleSet, parse_lines, read_lines, validate_partition,
                   write_lines)
from .edge_features import EdgeFeatureSet, all_pairs
from .errors import ConfigError, DataError

SYNTHETIC_KINDS = ("crossbones", "grid", "blobs", "circles")
SEGMENT_LENGTH = 1.0    # crossbones and grid segments
CROSS_ANGLE_DEG = 90.0  # angle between the two crossbones segments
GRID_SPACING = 0.5      # lattice step of the grid segment centers


@dataclass(frozen=True)
class SyntheticSpec:
    kind: str
    n: int
    k: Optional[int] = None  # 6 on grid, 2 on every other kind
    noise: float = 0.03

    def __post_init__(self):
        if self.kind not in SYNTHETIC_KINDS:
            raise ConfigError(f"unknown synthetic kind {self.kind!r}")
        if self.k is None:
            object.__setattr__(self, "k", 6 if self.kind == "grid" else 2)
        if self.n < self.k or self.k < 1:
            raise ConfigError("need n >= k >= 1")
        if not 0 <= self.noise < math.inf:
            raise ConfigError("noise must be finite and >= 0")


@dataclass(frozen=True)
class EdgeLevelSpec:
    sizes: Sequence[int]
    p1: object  # density with sample()/logpdf_many()
    p0: object

    def __post_init__(self):
        sizes = tuple(self.sizes) if isinstance(self.sizes, Iterable) else ()
        if not sizes or not all(isinstance(s, Integral) and s >= 1
                                and not isinstance(s, bool) for s in sizes):
            raise ConfigError("need a nonempty list of positive integer sizes")
        sizes = tuple(map(int, sizes))
        if self.p1.d != self.p0.d:
            raise ConfigError("P1 and P0 must share a dimension")
        object.__setattr__(self, "sizes", sizes)

    @property
    def n(self) -> int:
        return sum(self.sizes)


def _balanced_counts(n: int, k: int) -> np.ndarray:
    counts = np.full(k, n // k)
    counts[: n % k] += 1
    return counts


def _segment_points(count: int, center: np.ndarray, direction: np.ndarray,
                    noise: float, rng: np.random.Generator):
    t = rng.uniform(-0.5, 0.5, size=count) * SEGMENT_LENGTH
    pts = center + t[:, None] * direction
    if noise > 0:
        pts = pts + rng.normal(0.0, noise * SEGMENT_LENGTH, size=pts.shape)
    return pts


def gen_synthetic(spec: SyntheticSpec, rng: np.random.Generator) -> SampleSet:
    """2-D labeled sample sets; crossbones and grid are the crossing-segment
    regimes where scalar similarity functions fail."""
    counts = _balanced_counts(spec.n, spec.k)
    if spec.kind == "blobs":
        centers = np.stack([
            [math.cos(2 * math.pi * c / spec.k) * 4.0,
             math.sin(2 * math.pi * c / spec.k) * 4.0]
            for c in range(spec.k)
        ])
        chunks = [centers[c] + rng.normal(0.0, max(spec.noise, 1e-12), size=(counts[c], 2))
                  for c in range(spec.k)]
    elif spec.kind == "circles":
        chunks = []
        for c in range(spec.k):
            radius = 1.0 + 2.0 * c
            angles = rng.uniform(0.0, 2 * math.pi, size=counts[c])
            pts = radius * np.column_stack([np.cos(angles), np.sin(angles)])
            if spec.noise > 0:
                pts = pts + rng.normal(0.0, spec.noise, size=pts.shape)
            chunks.append(pts)
    else:
        if spec.kind == "crossbones":
            if spec.k != 2:
                raise ConfigError("crossbones has exactly 2 clusters")
            half = math.radians(CROSS_ANGLE_DEG) / 2.0
            centers = np.zeros((2, 2))
            dirs = np.array([[math.cos(half), math.sin(half)],
                             [math.cos(half), -math.sin(half)]])
        else:
            # alternating horizontal/vertical segments on a lattice; with a
            # lattice step below the segment length, neighbors cross each other
            cols = int(math.ceil(math.sqrt(spec.k)))
            row, col = np.divmod(np.arange(spec.k), cols)
            centers = GRID_SPACING * np.column_stack([col, row])
            dirs = np.array([[1.0, 0.0], [0.0, 1.0]])[np.arange(spec.k) % 2]
        chunks = [_segment_points(counts[c], centers[c], dirs[c], spec.noise, rng)
                  for c in range(spec.k)]
    features = np.concatenate(chunks, axis=0)
    if not np.isfinite(features).all():
        raise ConfigError(f"noise {spec.noise:g} overflows the generated points")
    labels = np.concatenate([np.full(counts[c], c + 1, dtype=int)
                             for c in range(spec.k)])
    return SampleSet(features=features, labels=labels)


def gen_edge_level(spec: EdgeLevelSpec, rng: np.random.Generator):
    """Draw every pair's edge vector i.i.d. from P1 (same-cluster) or P0
    (cross-cluster) under the planted partition."""
    labels = np.concatenate([np.full(s, c + 1, dtype=int)
                             for c, s in enumerate(spec.sizes)])
    truth = validate_partition(labels)
    pairs = all_pairs(spec.n)
    same = labels[pairs[:, 0]] == labels[pairs[:, 1]]
    vectors = np.empty((len(pairs), spec.p1.d))
    n_same = int(same.sum())
    vectors[same] = spec.p1.sample(rng, n_same)
    vectors[~same] = spec.p0.sample(rng, len(pairs) - n_same)
    return EdgeFeatureSet(pairs=pairs, vectors=vectors), truth


def _is_number(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


def load_csv(path, has_labels: bool = False) -> SampleSet:
    """Parse a numeric CSV into a SampleSet; the last column is the label
    when flagged. Line 1 is a header when none of its fields is a number."""
    lines = read_lines(path, ",")
    if lines and lines[0][0] == 1 and not any(map(_is_number, lines[0][1])):
        lines = lines[1:]
    if not lines:
        raise DataError(f"{path}: no data rows")
    width = len(lines[0][1])
    data = np.column_stack(parse_lines(path, lines, (float,) * width))
    if has_labels:
        if data.shape[1] < 2:
            raise DataError(f"{path}: need at least one feature column "
                            "besides the label")
        raw_labels = data[:, -1]
        if not np.all((np.abs(raw_labels) < 2**63)
                      & (raw_labels == np.round(raw_labels))):
            raise DataError(f"{path}: label column must hold integers of "
                            "magnitude below 2**63")
        dense = validate_partition(raw_labels.astype(int)).labels
        return SampleSet(features=data[:, :-1], labels=dense)
    return SampleSet(features=data)


def save_csv(s: SampleSet, path) -> None:
    rows = ([f"{v:.17g}" for v in row] for row in s.features)
    if s.labels is not None:
        rows = (cells + [str(int(lab))] for cells, lab in zip(rows, s.labels))
    write_lines(path, (",".join(cells) for cells in rows))


def save_labeled_pairs(pairs: np.ndarray, same: np.ndarray, path) -> None:
    """Write the labeled-pair format: ``i,j,same`` with same in {0,1}."""
    write_lines(path, (f"{i},{j},{int(s)}" for (i, j), s in zip(pairs, same)))


def _flag(cell: str) -> bool:
    value = int(cell)
    if value not in (0, 1):
        raise ValueError(cell)
    return value == 1


def load_labeled_pairs(path):
    i, j, same = parse_lines(path, read_lines(path, ","),
                             (np.int64, np.int64, _flag))
    if not len(same):
        raise DataError(f"{path}: no pairs")
    return np.column_stack([i, j]), same
