"""Weighted MinimizeDisagreements on the signed log-odds graph.

The LP relaxation places a variable x_ij in [0,1] on every pair of nodes that
touch a kept edge, pays C_ij*x_ij on positive edges and C_ij*(1-x_ij) on
negative edges, and enforces triangle inequalities lazily. Region growing
rounds the fractional metric into clusters whose positive cut is within a
log-factor of the enclosed LP volume; a randomized pivot heuristic and an
exact Bell-enumeration oracle are provided alongside.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from .core import Partition, co_membership, validate_partition
from .density import SignedWeightedGraph
from .errors import DataError, SolverError

TRIANGLE_TOL = 1e-6
MAX_ROUNDS = 200   # lazy constraint-generation rounds before SolverError
BATCH = 1000       # most-violated triangles added per round
ORACLE_MAX_N = 12  # Bell(12) ~ 4.2e6 partitions for brute_force_optimum
_SNAP = 1e-9


def c1_constant(n: int) -> float:
    """Approximation constant 2 + 1/ln(n+1); natural log throughout."""
    return 2.0 + 1.0 / math.log(n + 1)


def approximation_factor(n: int) -> float:
    """c1*ln(n+1): region growing keeps the rounded cost within this factor
    of the LP lower bound."""
    return c1_constant(n) * math.log(n + 1)


@dataclass(frozen=True)
class FractionalMetric:
    """LP solution over every node of the graph; a node that touches no kept
    edge is at distance 1 from all others."""

    x: np.ndarray        # (n, n) symmetric, x_ii = 0, entries in [0, 1]
    objective: float

    def max_triangle_violation(self) -> float:
        if len(self.x) < 3:
            return 0.0
        return float(_triangle_violations(self.x).max())


@dataclass(frozen=True)
class SolveCertificate:
    lp_lower_bound: float
    rounded_cost: float
    c1: float
    bound_rhs: float
    n: int

    def to_dict(self) -> dict:
        return asdict(self)


def _disagreements(positive: np.ndarray, costs: np.ndarray,
                   same: np.ndarray) -> float:
    """Cost of the positive edges cut plus the negative edges kept internal,
    given each kept edge's sign test and co-membership bit."""
    return costs[np.where(positive, ~same, same)].sum()


def disagreement_cost(g: SignedWeightedGraph, p: Partition) -> float:
    """Total cost of positive edges cut by p plus negative edges kept
    internal; dropped edges contribute nothing."""
    if p.n != g.n:
        raise DataError(f"partition covers {p.n} nodes, graph has {g.n}")
    return float(_disagreements(g.signs > 0, g.costs, co_membership(p, g.pairs)))


def _triangle_violations(x: np.ndarray) -> np.ndarray:
    """(a, a, a) tensor of x_ij - x_il - x_lj for a symmetric x."""
    return x[:, :, None] - x[:, None, :] - x[None, :, :]


def _violated_triangles(x: np.ndarray, budget: int, tol: float) -> np.ndarray:
    """Flat ids i*a*a + j*a + l of the at most ``budget`` most-violated
    triangle inequalities x_ij <= x_il + x_lj with i < j, most violated
    first. With x_ii = 0 every l in {i, j} violates by exactly 0, so tol > 0
    keeps l distinct from both."""
    a = x.shape[0]
    viol = _triangle_violations(x)
    viol[np.tril_indices(a)] = 0.0
    flat = np.flatnonzero(viol > tol)
    vals = viol.ravel()[flat]
    if flat.size > budget:
        top = np.argpartition(vals, -budget)[-budget:]
        flat = flat[top]
        vals = vals[top]
    return flat[np.argsort(-vals, kind="stable")]


def lp_relax(g: SignedWeightedGraph) -> FractionalMetric:
    """Solve the metric LP relaxation with lazy triangle-constraint
    generation, adding at most BATCH rows in each of at most MAX_ROUNDS
    rounds; the returned objective is a valid lower bound on the optimal
    disagreement cost. The LP runs over the nodes that touch a kept edge;
    every other node is at distance 1, so a graph with no kept edges gets
    the metric 1 - I and objective 0."""
    metric = 1.0 - np.eye(g.n)
    if g.edge_count == 0:
        return FractionalMetric(x=metric, objective=0.0)
    nodes = np.unique(g.pairs)
    a = nodes.size
    # variable index for each unordered pair over the active node set
    var = -np.ones((a, a), dtype=int)
    iu = np.triu_indices(a, k=1)
    var[iu] = np.arange(iu[0].size)
    var = np.maximum(var, var.T)
    nvars = iu[0].size

    local = np.searchsorted(nodes, g.pairs)
    pos = g.signs > 0
    c = np.zeros(nvars)
    c[var[local[:, 0], local[:, 1]]] = np.where(pos, g.costs, -g.costs)
    const = sum(g.costs[~pos].tolist())  # left to right, in edge order

    added = np.empty(0, dtype=np.intp)  # flat triangle ids, one row each
    for _ in range(MAX_ROUNDS):
        a_ub = None
        if added.size:
            i, j, l = np.unravel_index(added, (a, a, a))
            a_ub = sparse.csr_matrix(
                (np.tile([1.0, -1.0, -1.0], added.size),
                 (np.repeat(np.arange(added.size), 3),
                  np.stack([var[i, j], var[i, l], var[l, j]], axis=1).ravel())),
                shape=(added.size, nvars))
        res = linprog(c, A_ub=a_ub, b_ub=np.zeros(added.size),
                      bounds=(0.0, 1.0), method="highs")
        if not res.success:
            raise SolverError(f"LP solve failed: {res.message}")
        x = np.asarray(res.x)
        x[x < _SNAP] = 0.0
        x[x > 1.0 - _SNAP] = 1.0
        xm = np.zeros((a, a))
        xm[iu] = x
        xm = xm + xm.T
        flat = _violated_triangles(xm, BATCH, TRIANGLE_TOL)
        flat = flat[~np.isin(flat, added)]
        if not flat.size:
            metric[np.ix_(nodes, nodes)] = xm
            return FractionalMetric(x=metric, objective=float(c @ x + const))
        added = np.concatenate([added, flat])
    raise SolverError("lazy triangle generation exceeded its round budget")


def round_regions(m: FractionalMetric, g: SignedWeightedGraph) -> Partition:
    """Deterministic region growing over the fractional metric.

    Repeatedly seed at the lowest-indexed unassigned node, sweep radii over
    the distinct LP distances below 1/2, and emit the first ball whose
    positive cut is at most c1*ln(n+1) times its volume (LP volume seeded
    with F/n). A node with no kept edge is at distance 1 from the rest, so
    its only ball is itself.
    """
    n = g.n
    if m.x.shape != (n, n):
        raise DataError(f"the metric covers {len(m.x)} nodes, the graph has {n}")
    if n == 0:
        raise DataError("the graph has no nodes")
    pos = g.signs > 0
    pi, pj = g.pairs[pos].T
    pc = g.costs[pos]
    factor = approximation_factor(n)
    f_seed = m.objective / n
    x = m.x

    unassigned = np.ones(n, dtype=bool)
    labels = np.zeros(n, dtype=int)
    next_label = 0

    def first_fit(u, balls, radii):
        """The first ball whose positive cut is at most the factor times its
        LP volume at the paired radius, both over unassigned nodes; None if
        no ball fits."""
        live = unassigned[pi] & unassigned[pj]
        for ball, radius in zip(balls, radii):
            in_i, in_j = ball[pi], ball[pj]
            crossing = live & (in_i ^ in_j)
            inside = live & in_i & in_j
            vol = f_seed + np.sum(pc[inside] * x[pi[inside], pj[inside]])
            if crossing.any():
                anchor = np.where(in_i[crossing], pi[crossing], pj[crossing])
                vol += np.sum(pc[crossing] * np.clip(radius - x[u, anchor], 0.0, None))
            if pc[crossing].sum() <= factor * vol + 1e-12:
                return ball
        return None

    while unassigned.any():
        u = int(np.flatnonzero(unassigned)[0])
        dists = x[u]
        candidates = dists[unassigned & (dists < 0.5)]
        radii = np.unique(np.concatenate([[0.0], candidates]))
        balls = [unassigned & (dists <= r) for r in radii]
        # test at the candidate radii first, then retry at each interval's
        # upper end, where the volume is largest; the region-growing
        # guarantee holds somewhere below 1/2
        chosen = first_fit(u, balls, radii)
        if chosen is None:
            chosen = first_fit(u, balls, np.append(radii[1:], 0.5))
        if chosen is None:
            chosen = unassigned & (dists < 0.5)
            chosen[u] = True
        next_label += 1
        labels[chosen] = next_label
        unassigned &= ~chosen
    return validate_partition(labels)


def kwik_cluster(g: SignedWeightedGraph, rng: np.random.Generator) -> Partition:
    """Randomized pivot heuristic: each pivot absorbs every unassigned node
    joined to it by a positive kept edge."""
    n = g.n
    joined = np.eye(n, dtype=bool)
    i, j = g.pairs[g.signs > 0].T
    joined[i, j] = joined[j, i] = True
    labels = np.zeros(n, dtype=int)
    remaining = np.arange(n)
    next_label = 0
    while remaining.size:
        pivot = remaining[rng.integers(remaining.size)]
        next_label += 1
        labels[joined[pivot] & (labels == 0)] = next_label
        remaining = np.flatnonzero(labels == 0)
    return validate_partition(labels)


def _set_partitions(n: int):
    """All set partitions of range(n) as label arrays (restricted growth
    strings), in lexicographic order."""
    labels = np.zeros(n, dtype=int)
    maxes = np.zeros(n, dtype=int)
    while True:
        yield labels
        for pos in range(n - 1, 0, -1):
            if labels[pos] <= maxes[pos - 1]:
                labels[pos] += 1
                maxes[pos] = max(maxes[pos - 1], labels[pos])
                labels[pos + 1:] = 0
                maxes[pos + 1:] = maxes[pos]
                break
        else:
            return


def brute_force_optimum(g: SignedWeightedGraph):
    """Exact minimizer of disagreement_cost by enumerating all set
    partitions; first optimum in enumeration order wins ties."""
    if g.n > ORACLE_MAX_N:
        raise DataError(f"exact enumeration is capped at n = {ORACLE_MAX_N}")
    pi, pj = g.pairs[:, 0], g.pairs[:, 1]
    pos = g.signs > 0
    best_cost = math.inf
    best = None
    for labels in _set_partitions(g.n):
        cost = _disagreements(pos, g.costs, labels[pi] == labels[pj])
        if cost < best_cost - 1e-15:
            best_cost = float(cost)
            best = labels.copy()
    return validate_partition(best + 1), best_cost


def certify(g: SignedWeightedGraph, p: Partition,
            metric: FractionalMetric = None) -> SolveCertificate:
    """Certificate for partition p: the LP lower bound, the disagreement cost
    of p, and the rounding guarantee c1*ln(n+1) times the bound; ``metric``
    reuses a solved LP."""
    cost = disagreement_cost(g, p)
    if metric is None:
        metric = lp_relax(g)
    bound = metric.objective
    return SolveCertificate(lp_lower_bound=bound, rounded_cost=cost,
                            c1=c1_constant(g.n),
                            bound_rhs=approximation_factor(g.n) * bound, n=g.n)


def solve(g: SignedWeightedGraph):
    """LP relaxation plus region-growing rounding, with the likelihood-gap
    certificate."""
    metric = lp_relax(g)
    part = round_regions(metric, g)
    return part, certify(g, part, metric)
