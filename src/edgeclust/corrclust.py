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
MAX_ROUNDS = 200   # separation rounds, each with at most one solve
ORACLE_MAX_N = 12  # Bell(12) ~ 4.2e6 partitions for brute_force_optimum
_SNAP = 1e-9
_BLOCK_ELEMENTS = 2 ** 16  # triangle violations held by one separation block


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
        return max((float(v.max(initial=0.0)) for _, v in _violation_blocks(self.x)),
                   default=0.0)


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


def _violation_blocks(x: np.ndarray):
    """(i0, block) pairs that cover the (a, a, a) tensor x_ij - x_il - x_lj
    of a symmetric x in blocks of consecutive rows i starting at i0, each
    block at most _BLOCK_ELEMENTS entries (one row i when a row is larger)."""
    a = x.shape[0]
    rows = max(1, _BLOCK_ELEMENTS // max(1, a * a))
    for i0 in range(0, a, rows):
        xi = x[i0:i0 + rows]
        yield i0, xi[:, :, None] - xi[:, None, :] - x[None, :, :]


def _violated_triangles(x: np.ndarray, tol: float) -> np.ndarray:
    """Flat ids i*a*a + j*a + l of every triangle inequality
    x_ij <= x_il + x_lj with i < j violated by more than tol, most violated
    first (ties in id order). With x_ii = 0 every l in {i, j} violates by
    exactly 0, so tol > 0 keeps l distinct from both."""
    a = x.shape[0]
    ids, vals = [np.empty(0, dtype=np.intp)], [np.empty(0)]
    for i0, viol in _violation_blocks(x):
        viol[np.arange(a) <= np.arange(i0, i0 + len(viol))[:, None]] = 0.0
        hit = np.flatnonzero(viol > tol)
        ids.append(hit + i0 * a * a)
        vals.append(viol.ravel()[hit])
    # blocks come in id order, so the stable sort breaks ties by id
    ids, vals = np.concatenate(ids), np.concatenate(vals)
    return ids[np.argsort(-vals, kind="stable")]


def lp_relax(g: SignedWeightedGraph) -> FractionalMetric:
    """Solve the metric LP relaxation with lazy triangle-constraint
    generation, starting from the rowless optimum: each variable at the
    bound its cost favours, 1 on a negative edge and 0 elsewhere. Each of at
    most MAX_ROUNDS rounds adds a row for every triangle inequality the
    current solution violates, then solves with all rows so far; a round
    that adds none returns a lower bound on the optimal disagreement cost.
    Nodes off every kept edge sit at distance 1, so a graph without kept
    edges has no variables and gets 1 - I with objective 0."""
    metric = 1.0 - np.eye(g.n)
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

    x = (c < 0).astype(float)
    added = np.empty(0, dtype=np.intp)  # flat triangle ids, one row each
    for _ in range(MAX_ROUNDS):
        xm = np.where(var >= 0, x[var], 0.0)
        flat = _violated_triangles(xm, TRIANGLE_TOL)
        flat = flat[~np.isin(flat, added)]
        if not flat.size:
            metric[np.ix_(nodes, nodes)] = xm
            # cost times x's distance from the value the edge's sign wants:
            # never negative, and an integral x sums as disagreement_cost does
            terms = g.costs * np.abs(xm[local[:, 0], local[:, 1]] - ~pos)
            return FractionalMetric(x=metric, objective=float(terms[terms > 0].sum()))
        added = np.concatenate([added, flat])
        i, j, l = np.unravel_index(added, (a, a, a))
        a_ub = sparse.csr_matrix(
            (np.tile([1.0, -1.0, -1.0], added.size),
             (np.repeat(np.arange(added.size), 3),
              np.stack([var[i, j], var[i, l], var[l, j]], axis=1).ravel())),
            shape=(added.size, nvars))
        # the LP is feasible (x = 0) and bounded, so presolve finds nothing;
        # it only costs time, and on sparsified graphs its vertex tends to
        # violate triangles not yet added, which costs another round
        res = linprog(c, A_ub=a_ub, b_ub=np.zeros(added.size),
                      bounds=(0.0, 1.0), method="highs",
                      options={"presolve": False})
        if not res.success:
            raise SolverError(f"LP solve failed: {res.message}")
        x = np.asarray(res.x)
        x[x < _SNAP] = 0.0
        x[x > 1.0 - _SNAP] = 1.0
    raise SolverError("lazy triangle generation exceeded its round budget")


def round_regions(m: FractionalMetric, g: SignedWeightedGraph) -> Partition:
    """Deterministic region growing over the fractional metric.

    Repeatedly seed at the lowest-indexed unassigned node u and try the balls
    of unassigned nodes within each distinct LP distance r < 1/2 of u. Their
    cut is the cost of the positive edges with the near end (to u) inside and
    the far end outside; their volume, seeded with F/n, is base + rho*cut at
    any rho >= r, each crossing edge counting up to rho from its near end.
    Emit the first ball whose cut is at most c1*ln(n+1) times its volume at
    its own radius, else the first that fits at the top of its interval (the
    next radius, or 1/2). Some ball fits on an LP metric; a seed where none
    does raises SolverError. A node with no kept edge is at distance 1 from
    the rest, so its only ball is itself.
    """
    n = g.n
    if m.x.shape != (n, n):
        raise DataError(f"the metric covers {len(m.x)} nodes, the graph has {n}")
    if n == 0:
        raise DataError("the graph has no nodes")
    pos = g.signs > 0
    pi, pj = g.pairs[pos].T
    pc = g.costs[pos]
    pw = pc * m.x[pi, pj]
    factor = approximation_factor(n)
    f_seed = m.objective / n

    unassigned = np.ones(n, dtype=bool)
    labels = np.zeros(n, dtype=int)
    while unassigned.any():
        u = int(np.flatnonzero(unassigned)[0])
        dists = m.x[u]
        live = unassigned[pi] & unassigned[pj]
        near = np.minimum(dists[pi], dists[pj])[live]
        far = np.maximum(dists[pi], dists[pj])[live]
        c, w, cn = pc[live], pw[live], pc[live] * near
        radii = np.unique(np.append(dists[unassigned & (dists < 0.5)], 0.0))
        cut, base = np.empty(radii.size), np.empty(radii.size)
        for k, r in enumerate(radii):
            crossing = (near <= r) & (far > r)
            cut[k] = c[crossing].sum()
            base[k] = f_seed + w[far <= r].sum() - cn[crossing].sum()
        # row 0 holds each ball's volume at its own radius, row 1 at the top
        # of its interval, so the first fit in row-major order follows the rule
        vol = base + np.stack([radii, np.append(radii[1:], 0.5)]) * cut
        fits = np.flatnonzero(cut <= factor * vol + 1e-12)
        if not fits.size:
            raise SolverError(f"region growing found no ball around seed node {u}")
        chosen = unassigned & (dists <= radii[fits[0] % radii.size])
        labels[chosen] = labels.max() + 1
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
