"""Weighted MinimizeDisagreements on the signed log-odds graph.

The LP relaxation places a variable x_ij in [0,1] on every pair of nodes that
touch a kept edge, pays C_ij*x_ij on positive edges and C_ij*(1-x_ij) on
negative edges, and enforces triangle inequalities lazily. Region growing
rounds the fractional metric into clusters whose positive cut is within a
log-factor of the enclosed LP volume; a randomized pivot heuristic and an
exact Bell-enumeration oracle are provided alongside.
"""
from __future__ import annotations

import importlib.util
import math
import os
import sys
from collections import namedtuple
from dataclasses import dataclass
from importlib.machinery import EXTENSION_SUFFIXES

import numpy as np

from .core import Partition, co_membership, validate_partition
from .density import SignedWeightedGraph
from .errors import DataError, SolverError

TRIANGLE_TOL = 1e-6
MAX_ROUNDS = 200   # separation rounds, each with at most one solve
SEED_ROWS = 3      # certificate rows kept per disagreeing edge and side
ORACLE_MAX_N = 12  # Bell(12) ~ 4.2e6 partitions for brute_force_optimum
_SNAP = 1e-9
_MOVE_GAIN = 1e-12  # least cost drop that makes a single-node move worth taking
_BOUND_GAP = 1e-6   # largest objective - dual bound, relative to max(1, |objective|)
_BLOCK_ELEMENTS = 2 ** 16  # triangle violations held by one separation block
_HIGHS = "scipy.optimize._highspy._core"  # the one scipy module edgeclust uses


def _load_highs():
    """scipy's compiled HiGHS module, loaded from its file without importing
    scipy's Python packages, under its own name so scipy shares it."""
    scipy = importlib.util.find_spec("scipy")  # locates scipy, runs none of it
    stem = os.path.join(scipy.submodule_search_locations[0] if scipy else "scipy",
                        "optimize", "_highspy", "_core")
    path = next((stem + s for s in EXTENSION_SUFFIXES if os.path.isfile(stem + s)), None)
    if path is None:
        raise ImportError(f"edgeclust needs scipy>=1.15: no {stem}{EXTENSION_SUFFIXES[0]}")
    spec = importlib.util.spec_from_file_location(_HIGHS, path)
    sys.modules[_HIGHS] = module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


highs = sys.modules.get(_HIGHS) or _load_highs()


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


def _pivot_moves(signed: np.ndarray) -> np.ndarray:
    """Cluster of each node, named by a node index, in a local optimum of
    the disagreement cost on the symmetric signed cost matrix (+cost on a
    positive edge, -cost on a negative one, 0 off the kept edges). A pivot
    pass in index order lets the lowest unassigned node take every
    unassigned node it has a positive edge to; then, while some move of one
    node to another cluster or to a new singleton lowers the cost by more
    than _MOVE_GAIN, the best such move is made, ties to the lowest node and
    then the lowest cluster. S = signed·onehot holds each node's summed
    signed cost into each cluster, so moving v from k to k' lowers the cost
    by S[v, k'] - S[v, k] and updates two columns of S."""
    a = len(signed)
    labels = np.full(a, -1)
    for v in range(a):
        if labels[v] < 0:
            labels[(labels < 0) & (signed[v] > 0)] = v
            labels[v] = v
    s = np.zeros((a, a))
    np.add.at(s.T, labels, signed)  # column k sums signed over k's members
    nodes = np.arange(a)
    while a:  # a graph without kept edges has no active nodes
        gain = s - s[nodes, labels][:, None]
        v, k = divmod(int(np.argmax(gain)), a)
        if gain[v, k] <= _MOVE_GAIN:
            break
        s[:, labels[v]] -= signed[v]
        s[:, k] += signed[v]
        labels[v] = k
    return labels


def _seed_rows(signed: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Flat ids, as _violated_triangles gives them, of the triangle rows
    x_ij <= x_il + x_lj tight at the clustering ``labels`` that hold an edge
    it disagrees with on the side that needs dual weight: a negative edge
    (i, j) inside a cluster as x_ij, with l in that cluster; a cut positive
    edge (u, v) as x_uv on the right of the row over (u, w) with third node
    v, for w in v's cluster, and the same with u and v swapped. Per edge and
    side only the SEED_ROWS rows whose other two edges the clustering agrees
    with most strongly are kept, ties to the lowest l or w, where an edge's
    agreement is its cost if the clustering agrees with it, minus its cost
    if not, and 0 off the kept edges. Edges go in blocks of at most
    _BLOCK_ELEMENTS scores. Sorted and unique."""
    a = labels.size
    same = labels[:, None] == labels
    agree = np.where(same, signed, -signed)
    i, j = np.nonzero(np.triu(agree < 0))
    inside = same[i, j]
    # one (p, q) per edge and side, with the third node w in q's cluster
    # outside {p, q}: the row is over (p, q) with third node w for an edge
    # inside, over (p, w) with third node q for a cut one
    p = np.concatenate([i[inside], i[~inside], j[~inside]])
    q = np.concatenate([j[inside], j[~inside], i[~inside]])
    cut = np.arange(p.size) >= inside.sum()
    ids = [np.empty(0, dtype=np.intp)]
    step = max(1, _BLOCK_ELEMENTS // max(1, a))
    for e0 in range(0, p.size, step):
        pb, qb = p[e0:e0 + step], q[e0:e0 + step]
        rows = np.arange(pb.size)
        score = np.minimum(agree[pb], agree[qb])
        score[labels[qb][:, None] != labels] = -np.inf
        score[rows, pb] = score[rows, qb] = -np.inf
        top = np.argsort(-score, axis=1, kind="stable")[:, :SEED_ROWS]
        e, t = np.nonzero(np.isfinite(np.take_along_axis(score, top, axis=1)))
        w, pe, qe, ce = top[e, t], pb[e], qb[e], cut[e + e0]
        v, third = np.where(ce, w, qe), np.where(ce, qe, w)
        ids.append((np.minimum(pe, v) * a + np.maximum(pe, v)) * a + third)
    return _unique(np.concatenate(ids))


def _unique(ids: np.ndarray) -> np.ndarray:
    """np.unique of non-negative integers by one sort, which numpy 2 does
    faster than its hashing np.unique at the sizes here."""
    ids = np.sort(ids)
    return ids[np.diff(ids, prepend=-1) > 0]


# the CSR fields linprog reads, which a scipy csr_array has too
CsrRows = namedtuple("CsrRows", "data indices indptr shape")
LPResult = namedtuple("LPResult", "success message x slack nit row_dual",
                      defaults=(None, None, 0, None))


def _triangle_rows(flat: np.ndarray, var: np.ndarray, nvars: int) -> CsrRows:
    """x_ij - x_il - x_lj <= 0 for each flat triangle id i*a*a + j*a + l, as
    CSR rows over the pair variables var."""
    a = var.shape[0]
    i, j, l = np.unravel_index(flat, (a, a, a))
    return CsrRows(np.tile([1.0, -1.0, -1.0], flat.size),
                   np.stack([var[i, j], var[i, l], var[l, j]], axis=1).ravel(),
                   np.arange(0, 3 * flat.size + 1, 3), (flat.size, nvars))


def dual_bound(c: np.ndarray, const: float, rows: CsrRows,
               y: np.ndarray) -> float:
    """const + sum_j min(0, (c + A^T y)_j): for any y >= 0 a lower bound on
    min c.x + const s.t. A x <= 0, 0 <= x <= 1, with A the CSR ``rows``."""
    weights = rows.data * np.repeat(y, np.diff(rows.indptr))
    reduced = c + np.bincount(rows.indices, weights=weights, minlength=c.size)
    return float(const + np.minimum(reduced, 0.0).sum())


def linprog(c: np.ndarray, A_ub: CsrRows, b_ub: np.ndarray) -> LPResult:
    """Solve min c.x s.t. A_ub x <= b_ub, 0 <= x <= 1 by one cold HiGHS dual
    simplex with presolve off. Returns success (optimal), HiGHS's model
    status text as message and, on success, x, slack = b_ub - A_ub x, nit
    (simplex iterations) and HiGHS's row duals, each <= 0 on a row this
    minimization presses against. lp_relax calls it through this module
    global with A_ub by keyword, as perfbench's tracer and the tests expect.
    The LP is feasible (x = 0) and bounded, so presolve has nothing to
    detect; it only costs time, and on sparsified graphs its vertex tends to
    violate triangles not yet added, which costs another round."""
    m, n = A_ub.shape
    h = highs._Highs()
    h.setOptionValue("output_flag", False)
    h.setOptionValue("presolve", "off")
    # run() solves whatever a rejected passModel leaves behind, and may call
    # it optimal, so a rejected model never reaches run()
    solved, status = False, highs.HighsModelStatus.kModelError
    if h.passModel(
            n, m, int(A_ub.indptr[-1]), int(highs.MatrixFormat.kRowwise),
            int(highs.ObjSense.kMinimize), 0.0, c, np.zeros(n), np.ones(n),
            np.full(m, -highs.kHighsInf), b_ub, A_ub.indptr, A_ub.indices,
            A_ub.data, np.zeros(n, dtype=np.int32)) != highs.HighsStatus.kError:
        solved = h.run() != highs.HighsStatus.kError
        status = h.getModelStatus()
    message = h.modelStatusToString(status)
    if not solved or status != highs.HighsModelStatus.kOptimal:
        return LPResult(False, message)
    solution = h.getSolution()
    return LPResult(True, message, x=np.array(solution.col_value),
                    slack=b_ub - solution.row_value,
                    nit=h.getInfo().simplex_iteration_count,
                    row_dual=np.array(solution.row_dual))


def lp_relax(g: SignedWeightedGraph) -> FractionalMetric:
    """Solve the metric LP relaxation with lazy triangle-constraint
    generation, starting from a clustering P of the active nodes
    (_pivot_moves): x is 1 on each kept edge P cuts and 0 on every other
    pair. The first of at most MAX_ROUNDS rounds adds a row for every
    triangle inequality that start violates and P's certificate rows
    (_seed_rows); each later round adds a row for every triangle inequality
    the last optimum violates. Every round solves with all rows so far, and
    a round that adds none returns the last optimum, whose objective the row
    duals of its solve must bound from below (dual_bound) to within
    _BOUND_GAP. When P agrees with every kept edge the start is the rowless
    optimum (1 on a negative edge, 0 elsewhere), so one that violates no
    triangle returns without a solve. Nodes off every kept edge sit at
    distance 1, so a graph without kept edges has no variables and gets
    1 - I with objective 0."""
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
    li, lj = local.T
    pos = g.signs > 0
    c = np.zeros(nvars)
    c[var[li, lj]] = np.where(pos, g.costs, -g.costs)
    signed = np.zeros((a, a))
    signed[li, lj] = signed[lj, li] = c[var[li, lj]]

    labels = _pivot_moves(signed)
    x = np.zeros(nvars)
    x[var[li, lj]] = labels[li] != labels[lj]
    seed = _seed_rows(signed, labels)
    # the start is an optimum only where it is the rowless one
    optimal = np.array_equal(x, c < 0)
    added = np.empty(0, dtype=np.intp)  # flat triangle ids, one row each
    rows, duals = _triangle_rows(added, var, nvars), np.empty(0)
    for _ in range(MAX_ROUNDS):
        xm = np.where(var >= 0, x[var], 0.0)
        flat = _violated_triangles(xm, TRIANGLE_TOL)
        # HiGHS meets its rows to 1e-7, so only a faulty optimum gets here
        if np.isin(flat, added, assume_unique=True).any():
            raise SolverError("the LP optimum violates one of its triangle rows")
        if optimal and not flat.size:
            metric[np.ix_(nodes, nodes)] = xm
            # cost times x's distance from the value the edge's sign wants:
            # never negative, and an integral x sums as disagreement_cost does
            terms = g.costs * np.abs(xm[li, lj] - ~pos)
            objective = float(terms[terms > 0].sum())
            bound = dual_bound(c, g.costs[~pos].sum(), rows,
                               np.maximum(0.0, -duals))
            if objective - bound > _BOUND_GAP * max(1.0, abs(objective)):
                raise SolverError(f"the LP objective {objective} exceeds the "
                                  f"bound {bound} its row duals give")
            return FractionalMetric(x=metric, objective=objective)
        if seed.size:  # the first round's rows go in flat-id order
            flat, seed = _unique(np.append(flat, seed)), seed[:0]
        added, optimal = np.concatenate([added, flat]), True
        rows = _triangle_rows(added, var, nvars)
        res = linprog(c, A_ub=rows, b_ub=np.zeros(added.size))
        if not res.success:
            raise SolverError(f"LP solve failed: {res.message}")
        x, duals = res.x, res.row_dual
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
