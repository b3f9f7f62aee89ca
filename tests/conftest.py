"""Shared fixtures and helpers for the test suite."""
import numpy as np
import pytest

from edgeclust.density import SignedWeightedGraph

# the edge-level spec of perfbench's edge_level_batch: three clusters of 15
EDGE_SPEC = {
    "sizes": [15, 15, 15],
    "p1": {"kind": "gaussian", "mean": [0.0, 0.0], "sigma": [1.0, 1.0]},
    "p0": {"kind": "gaussian", "mean": [2.0, 2.0], "sigma": [1.0, 1.0]},
}


def make_graph(n, edges):
    """Build a SignedWeightedGraph from (i, j, sign, cost) tuples."""
    if not edges:
        return SignedWeightedGraph(n=n, pairs=np.empty((0, 2), dtype=int),
                                   signs=np.empty(0, dtype=int),
                                   costs=np.empty(0))
    pairs = np.array([[e[0], e[1]] for e in edges], dtype=int)
    signs = np.array([e[2] for e in edges], dtype=int)
    costs = np.array([e[3] for e in edges], dtype=float)
    return SignedWeightedGraph(n=n, pairs=pairs, signs=signs, costs=costs)


def unit_triangle():
    """The +,+,- unit-cost triangle: optimum cost 1.0."""
    return make_graph(3, [(0, 1, 1, 1.0), (0, 2, 1, 1.0), (1, 2, -1, 1.0)])


def random_graph(n, rng, missing_frac=0.0):
    """Complete (or thinned) graph with random signs and costs."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = []
    for (i, j) in pairs:
        if missing_frac and rng.random() < missing_frac:
            continue
        sign = 1 if rng.random() < 0.5 else -1
        edges.append((i, j, sign, float(rng.uniform(0.1, 2.0))))
    if not edges:
        i, j = pairs[0]
        edges.append((i, j, 1, 1.0))
    return make_graph(n, edges)


class StepDensity:
    """Test stub: piecewise-constant 1-D density given as log-pdf breakpoints.

    logpdf_many(x) = levels[t] for edges[t] <= x < edges[t+1], floor outside.
    """

    def __init__(self, edges, levels, floor=-46.0517018598809136804):
        self.edges = np.asarray(edges, dtype=float)
        self.levels = np.asarray(levels, dtype=float)
        self.floor = floor

    @property
    def d(self):
        return 1

    def logpdf_many(self, x):
        x = np.asarray(x, dtype=float).reshape(-1)
        out = np.full(x.shape, self.floor)
        for t in range(len(self.levels)):
            mask = (x >= self.edges[t]) & (x < self.edges[t + 1])
            out[mask] = self.levels[t]
        return out


@pytest.fixture
def rng():
    return np.random.default_rng(0)
