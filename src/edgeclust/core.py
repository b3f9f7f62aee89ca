"""Domain types shared by all modules, partition semantics, clustering
quality metrics, the one row reader and line writer behind every text
file the package reads or writes, and the one report JSON writer.

Partitions map node indices 0..n-1 to cluster labels 1..k. All types are
immutable after construction and all operations are pure functions.
"""
from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from .errors import DataError


def read_lines(path, sep: str) -> list:
    """(line number, fields) for every non-blank line of the UTF-8 text file
    ``path``, stripped and split on ``sep``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [(lineno, raw.strip())
                     for lineno, raw in enumerate(fh, start=1)]
    except UnicodeDecodeError:
        raise DataError(f"{path}: not UTF-8 text") from None
    return [(lineno, line.split(sep)) for lineno, line in lines if line]


def parse_lines(path, lines, casts) -> list:
    """Columns of the rows ``lines`` (as read_lines gives them), field c of
    every row cast with ``casts[c]``. A row of another width, or a cell its
    cast rejects with ValueError, raises DataError naming ``path:line`` and
    the 1-based column."""
    columns = [[] for _ in casts]
    for lineno, fields in lines:
        if len(fields) != len(casts):
            raise DataError(f"{path}:{lineno}: expected {len(casts)} fields, "
                            f"found {len(fields)}")
        for col, (cast, cell, column) in enumerate(zip(casts, fields, columns),
                                                   start=1):
            try:
                column.append(cast(cell))
            except ValueError:
                raise DataError(f"{path}:{lineno}: column {col}: cannot read "
                                f"{cell.strip()!r}") from None
    return columns


def report_json(report: dict) -> str:
    """The one JSON form of every report: sorted keys, 2-space indent. A NaN
    or infinite value raises DataError."""
    try:
        return json.dumps(report, sort_keys=True, indent=2, allow_nan=False)
    except ValueError:
        raise DataError("report contains a non-finite numeric value") from None


def write_lines(path, lines) -> None:
    """Write each string of ``lines`` as one line of the UTF-8 text file
    ``path``, with LF endings."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(line + "\n" for line in lines)


@dataclass(frozen=True)
class SampleSet:
    """Node feature matrix (n x d) with optional ground-truth labels."""

    features: np.ndarray
    labels: Optional[np.ndarray] = None

    def __post_init__(self):
        try:
            feats = np.asarray(self.features, dtype=float)
        except ValueError:
            raise DataError("features must be a nonempty 2-D matrix") from None
        if feats.ndim != 2 or feats.shape[0] < 1 or feats.shape[1] < 1:
            raise DataError("features must be a nonempty 2-D matrix")
        if not np.all(np.isfinite(feats)):
            raise DataError("features contain non-finite entries")
        object.__setattr__(self, "features", feats)
        if self.labels is not None:
            labels = np.asarray(self.labels, dtype=int)
            if labels.shape != (feats.shape[0],):
                raise DataError("labels length must match the number of rows")
            k = int(labels.max(initial=0))
            if labels.min(initial=1) < 1 or len(np.unique(labels)) != k:
                raise DataError("labels must cover 1..k with every value used")
            object.__setattr__(self, "labels", labels)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]


@dataclass(frozen=True)
class Partition:
    """Surjective label map onto {1..k}; use validate_partition to build one
    from arbitrary labels."""

    labels: np.ndarray
    k: int

    def __post_init__(self):
        labels = np.asarray(self.labels, dtype=int)
        if labels.ndim != 1 or labels.size == 0:
            raise DataError("partition labels must be a nonempty vector")
        uniq = np.unique(labels)
        if uniq[0] < 1 or uniq[-1] != self.k or len(uniq) != self.k:
            raise DataError("labels must be a surjection onto {1..k}")
        object.__setattr__(self, "labels", labels)

    @property
    def n(self) -> int:
        return self.labels.size


@dataclass(frozen=True)
class ScoreReport:
    nmi: float
    pairwise_precision: float
    pairwise_recall: float
    pairwise_f1: float
    k_predicted: int

    def to_dict(self) -> dict:
        return asdict(self)


def validate_partition(labels) -> Partition:
    """Canonicalize arbitrary integer labels to the dense range 1..k, ordered
    by first appearance. Idempotent."""
    labels = np.asarray(labels, dtype=int)
    if labels.ndim != 1 or labels.size == 0:
        raise DataError("partition labels must be a nonempty vector")
    _, first = np.unique(labels, return_index=True)
    order = labels[np.sort(first)]
    remap = {int(lab): pos + 1 for pos, lab in enumerate(order)}
    dense = np.array([remap[int(lab)] for lab in labels], dtype=int)
    return Partition(labels=dense, k=len(order))


def check_pairs(pairs, n: int) -> np.ndarray:
    """Node pairs as an (m, 2) int array; raises DataError unless every row
    satisfies 0 <= i < j < n."""
    pairs = np.asarray(pairs, dtype=int).reshape(-1, 2)
    if len(pairs) and (np.any(pairs[:, 0] >= pairs[:, 1])
                       or pairs[:, 0].min() < 0 or pairs[:, 1].max() >= n):
        raise DataError(f"pair indices must satisfy 0 <= i < j < n = {n}")
    return pairs


def has_duplicate_pairs(pairs: np.ndarray) -> bool:
    """True when a row of the (m, 2) int array ``pairs`` appears twice."""
    rows = pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]
    return bool(np.any(np.all(rows[1:] == rows[:-1], axis=1)))


def co_membership(p: Partition, pairs) -> np.ndarray:
    """Pairwise co-membership bits: True where both endpoints of a pair
    share a label."""
    pairs = check_pairs(pairs, p.n)
    return p.labels[pairs[:, 0]] == p.labels[pairs[:, 1]]


def _entropy(counts: np.ndarray) -> float:
    # natural log; 0*log(0) == 0
    total = counts.sum()
    probs = counts[counts > 0] / total
    return float(-np.sum(probs * np.log(probs)))


def _contingency(a: Partition, b: Partition) -> np.ndarray:
    """(a.k, b.k) integer table of the nodes in each pair of clusters."""
    if a.n != b.n:
        raise DataError("partitions must cover the same nodes")
    table = np.zeros((a.k, b.k), dtype=np.int64)
    np.add.at(table, (a.labels - 1, b.labels - 1), 1)
    return table


def nmi(a: Partition, b: Partition) -> float:
    """Normalized mutual information, arithmetic-mean normalizer, natural log.

    Both sides single-cluster is defined as 1.0 (identical up to relabeling).
    """
    table = _contingency(a, b)
    n = float(a.n)
    ha = _entropy(table.sum(axis=1))
    hb = _entropy(table.sum(axis=0))
    if ha + hb == 0.0:
        return 1.0
    outer = np.outer(table.sum(axis=1), table.sum(axis=0))
    mask = table > 0
    mi = float(np.sum(table[mask] / n * np.log(n * table[mask] / outer[mask])))
    return float(min(1.0, max(0.0, mi / (0.5 * (ha + hb)))))


def score(predicted: Partition, truth: Partition) -> ScoreReport:
    """Clustering quality of ``predicted`` against ``truth``.

    Pairwise metrics treat every same-cluster pair as a positive; the pairs
    counted in a cell, row or column of the contingency table are C(count, 2).
    """
    table = _contingency(predicted, truth)
    tp, pred_pos, true_pos = (int(np.sum(c * (c - 1) // 2)) for c in
                              (table, table.sum(axis=1), table.sum(axis=0)))
    precision = tp / pred_pos if pred_pos > 0 else 0.0
    recall = tp / true_pos if true_pos > 0 else 0.0
    f1 = (2 * precision * recall / (precision + recall)
          if precision + recall > 0 else 0.0)
    return ScoreReport(
        nmi=nmi(predicted, truth),
        pairwise_precision=precision,
        pairwise_recall=recall,
        pairwise_f1=f1,
        k_predicted=predicted.k,
    )
