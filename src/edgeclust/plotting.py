"""Static SVG scatter plots of clustered samples."""
from __future__ import annotations

import numpy as np

from .core import Partition, SampleSet, write_lines
from .edge_features import pca_fit, pca_transform
from .errors import DataError

PALETTE = (
    "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd", "#8c564b",
    "#e377c2", "#7f7f7f", "#bcbd22", "#17becf", "#aec7e8", "#ffbb78",
)

_WIDTH = 640
_HEIGHT = 480
_MARGIN_FRAC = 0.05


def render_svg(s: SampleSet, p: Partition, path) -> None:
    """Scatter plot with one palette color per cluster; data with more than
    two feature dimensions is projected onto its first two principal
    components."""
    if s.n == 0:
        raise DataError("nothing to plot")
    if p.n != s.n:
        raise DataError("partition must cover the sample set")
    if s.d < 2:
        raise DataError("need at least 2 feature dimensions")
    xy = s.features
    if s.d > 2:
        model = pca_fit(xy, variance_target=1.0)
        xy = pca_transform(model, xy)[:, :2]
    lo = xy.min(axis=0)
    hi = xy.max(axis=0)
    span = np.maximum(hi - lo, 1e-12)
    lo = lo - _MARGIN_FRAC * span
    hi = hi + _MARGIN_FRAC * span
    span = hi - lo

    def to_px(point):
        x = (point[0] - lo[0]) / span[0] * _WIDTH
        y = _HEIGHT - (point[1] - lo[1]) / span[1] * _HEIGHT
        return x, y

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
    ]
    for idx in range(s.n):
        x, y = to_px(xy[idx])
        fill = PALETTE[(p.labels[idx] - 1) % len(PALETTE)]
        parts.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="3" fill="{fill}"/>')
    parts.append("</svg>")
    write_lines(path, parts)
