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
    """LP solution restricted to the kept-edge node set."""

    nodes: np.ndarray    # original node ids, ascending
    x: np.ndarray        # (a, a) symmetric, x_ii = 0, entries in [0, 1]
    objective: float

    @property
    def size(self) -> int:
        return self.nodes.size

    def max_triangle_violation(self) -> float:
        x = self.x
        if x.shape[0] < 3:
            return 0.0
        viol = x[:, :, None] - x[:, None, :] - x[None, :, :]
        return float(viol.max())


@dataclass(frozen=True)
class SolveCertificate:
    lp_lower_bound: float
    rounded_cost: float
    c1: float
    bound_rhs: float
    n: int

    def to_dict(self) -> dict:
        return asdict(self)


def disagreement_cost(g: SignedWeightedGraph, p: Partition) -> float:
    """Total cost of positive edges cut by p plus negative edges kept
    internal; dropped edges contribute nothing."""
    if p.n != g.n:
        raise DataError(f"partition covers {p.n} nodes, graph has {g.n}")
    same = co_membership(p, g.pairs)
    bad = np.where(g.signs > 0, ~same, same)
    return float(g.costs[bad].sum())


def _violated_triangles(x: np.ndarray, budget: int, tol: float):
    """Most-violated triangle inequalities x_ij <= x_il + x_lj, as (i, j, l)
    triples with i < j and l distinct from both."""
    a = x.shape[0]
    viol = x[:, :, None] - x[:, None, :] - x[None, :, :]
    ii, jj, ll = np.meshgrid(np.arange(a), np.arange(a), np.arange(a),
                             indexing="ij")
    mask = (ii < jj) & (ll != ii) & (ll != jj) & (viol > tol)
    if not mask.any():
        return []
    flat = np.flatnonzero(mask.ravel())
    vals = viol.ravel()[flat]
    if flat.size > budget:
        top = np.argpartition(vals, -budget)[-budget:]
        flat = flat[top]
        vals = vals[top]
    order = np.argsort(-vals, kind="stable")
    flat = flat[order]
    i = flat // (a * a)
    rem = flat % (a * a)
    j = rem // a
    l = rem % a
    return list(zip(i.tolist(), j.tolist(), l.tolist()))


def lp_relax(g: SignedWeightedGraph, max_rounds: int = 200,
             batch: int = 1000) -> FractionalMetric:
    """Solve the metric LP relaxation with lazy triangle-constraint
    generation; the returned objective is a valid lower bound on the optimal
    disagreement cost."""
    if g.edge_count == 0:
        raise DataError("graph has no kept edges")
    nodes = np.unique(g.pairs)
    a = nodes.size
    local = {int(v): t for t, v in enumerate(nodes)}
    # variable index for each unordered pair over the active node set
    var = -np.ones((a, a), dtype=int)
    iu = np.triu_indices(a, k=1)
    var[iu] = np.arange(iu[0].size)
    var = np.maximum(var, var.T)
    nvars = iu[0].size

    c = np.zeros(nvars)
    const = 0.0
    for (i, j), s, cost in zip(g.pairs, g.signs, g.costs):
        v = var[local[int(i)], local[int(j)]]
        if s > 0:
            c[v] += cost
        else:
            c[v] -= cost
            const += cost

    rows_i, rows_j, vals = [], [], []
    nrows = 0
    added = set()
    x = None
    for _ in range(max_rounds):
        if nrows:
            a_ub = sparse.csr_matrix((vals, (rows_i, rows_j)),
                                     shape=(nrows, nvars))
            res = linprog(c, A_ub=a_ub, b_ub=np.zeros(nrows),
                          bounds=(0.0, 1.0), method="highs")
        else:
            res = linprog(c, bounds=(0.0, 1.0), method="highs")
        if not res.success:
            raise SolverError(f"LP solve failed: {res.message}")
        x = np.asarray(res.x)
        x[x < _SNAP] = 0.0
        x[x > 1.0 - _SNAP] = 1.0
        xm = np.zeros((a, a))
        xm[iu] = x
        xm = xm + xm.T
        triples = [t for t in _violated_triangles(xm, batch, TRIANGLE_TOL)
                   if t not in added]
        if not triples:
            objective = float(c @ x + const)
            return FractionalMetric(nodes=nodes, x=xm, objective=objective)
        for (i, j, l) in triples:
            added.add((i, j, l))
            rows_i += [nrows, nrows, nrows]
            rows_j += [var[i, j], var[i, l], var[l, j]]
            vals += [1.0, -1.0, -1.0]
            nrows += 1
    raise SolverError("lazy triangle generation exceeded its round budget")


def _positive_adjacency(g: SignedWeightedGraph, local: dict, a: int):
    """Positive-edge lists in local indices: (i, j, cost) arrays."""
    pos = g.signs > 0
    pi = np.array([local[int(v)] for v in g.pairs[pos, 0]], dtype=int)
    pj = np.array([local[int(v)] for v in g.pairs[pos, 1]], dtype=int)
    pc = g.costs[pos]
    return pi, pj, pc


def round_regions(m: FractionalMetric, g: SignedWeightedGraph) -> Partition:
    """Deterministic region growing over the fractional metric.

    Repeatedly seed at the lowest-indexed unassigned node, sweep radii over
    the distinct LP distances below 1/2, and emit the first ball whose
    positive cut is at most c1*ln(n+1) times its volume (LP volume seeded
    with F/n). Nodes outside the kept-edge set become singletons.
    """
    n = g.n
    a = m.size
    local = {int(v): t for t, v in enumerate(m.nodes)}
    pi, pj, pc = _positive_adjacency(g, local, a)
    factor = approximation_factor(n)
    f_seed = m.objective / n
    x = m.x

    unassigned = np.ones(a, dtype=bool)
    cluster_of = np.zeros(a, dtype=int)
    next_label = 0

    def cut_and_volume(u, ball, radius):
        """Positive cut of the ball and its LP volume at the given radius,
        both restricted to unassigned nodes."""
        live = unassigned[pi] & unassigned[pj]
        in_i, in_j = ball[pi], ball[pj]
        crossing = live & (in_i ^ in_j)
        inside = live & in_i & in_j
        cut = pc[crossing].sum()
        vol = f_seed + np.sum(pc[inside] * x[pi[inside], pj[inside]])
        if crossing.any():
            anchor = np.where(in_i[crossing], pi[crossing], pj[crossing])
            vol += np.sum(pc[crossing] * np.clip(radius - x[u, anchor], 0.0, None))
        return float(cut), float(vol)

    while unassigned.any():
        u = int(np.flatnonzero(unassigned)[0])
        dists = x[u]
        candidates = dists[unassigned & (dists < 0.5)]
        radii = np.unique(np.concatenate([[0.0], candidates]))
        balls = [unassigned & (dists <= r) for r in radii]
        chosen = None
        for t, r in enumerate(radii):  # test at the candidate radii first
            cut, vol = cut_and_volume(u, balls[t], r)
            if cut <= factor * vol + 1e-12:
                chosen = balls[t]
                break
        if chosen is None:
            # retry at each interval's upper end, where the volume is largest;
            # the region-growing guarantee holds somewhere below 1/2
            sups = np.append(radii[1:], 0.5)
            for t, r_sup in enumerate(sups):
                cut, vol = cut_and_volume(u, balls[t], r_sup)
                if cut <= factor * vol + 1e-12:
                    chosen = balls[t]
                    break
        if chosen is None:
            chosen = unassigned & (dists < 0.5)
            chosen[u] = True
        next_label += 1
        cluster_of[chosen] = next_label
        unassigned &= ~chosen

    labels = np.zeros(n, dtype=int)
    labels[m.nodes] = cluster_of
    isolated = np.flatnonzero(labels == 0)
    labels[isolated] = next_label + 1 + np.arange(isolated.size)
    return validate_partition(labels)


def kwik_cluster(g: SignedWeightedGraph, rng: np.random.Generator) -> Partition:
    """Randomized pivot heuristic: each pivot absorbs every unassigned node
    joined to it by a positive kept edge."""
    n = g.n
    neighbors = [[] for _ in range(n)]
    for (i, j), s in zip(g.pairs, g.signs):
        if s > 0:
            neighbors[int(i)].append(int(j))
            neighbors[int(j)].append(int(i))
    labels = np.zeros(n, dtype=int)
    remaining = list(range(n))
    next_label = 0
    while remaining:
        pivot = remaining[int(rng.integers(len(remaining)))]
        next_label += 1
        labels[pivot] = next_label
        for w in neighbors[pivot]:
            if labels[w] == 0:
                labels[w] = next_label
        remaining = [v for v in remaining if labels[v] == 0]
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
        same = labels[pi] == labels[pj]
        cost = g.costs[np.where(pos, ~same, same)].sum()
        if cost < best_cost - 1e-15:
            best_cost = float(cost)
            best = labels.copy()
    return validate_partition(best + 1), best_cost


def certify(g: SignedWeightedGraph, p: Partition,
            metric: FractionalMetric = None) -> SolveCertificate:
    """Certificate for partition p: the LP lower bound, the disagreement cost
    of p, and the rounding guarantee c1*ln(n+1) times the bound. A graph with
    no kept edges has the zero bound; ``metric`` reuses a solved LP."""
    cost = disagreement_cost(g, p)
    if metric is None and g.edge_count:
        metric = lp_relax(g)
    bound = metric.objective if metric is not None else 0.0
    return SolveCertificate(lp_lower_bound=bound, rounded_cost=cost,
                            c1=c1_constant(g.n),
                            bound_rhs=approximation_factor(g.n) * bound, n=g.n)


def solve(g: SignedWeightedGraph):
    """LP relaxation plus region-growing rounding, with the likelihood-gap
    certificate."""
    if g.edge_count == 0:
        part = validate_partition(np.arange(1, g.n + 1))
        return part, certify(g, part)
    metric = lp_relax(g)
    part = round_regions(metric, g)
    return part, certify(g, part, metric)
