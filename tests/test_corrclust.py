"""LP relaxation, region-growing rounding, pivot heuristic, and the exact
oracle for weighted MinimizeDisagreements."""
import math
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.optimize import linprog

from conftest import EDGE_SPEC, make_graph, random_graph, unit_triangle
from edgeclust import corrclust
from edgeclust.core import validate_partition
from edgeclust.corrclust import (CsrRows, FractionalMetric, LPResult,
                                 SEED_ROWS, TRIANGLE_TOL, brute_force_optimum,
                                 c1_constant, disagreement_cost, dual_bound,
                                 kwik_cluster, lp_relax, round_regions, solve,
                                 _BLOCK_ELEMENTS, _pivot_moves, _seed_rows,
                                 _set_partitions, _violated_triangles)
from edgeclust.errors import DataError, SolverError
from edgeclust.pipeline import RunConfig, run_pipeline


def naive_violations(x, tol):
    """(violation, flat id i*a*a + j*a + l) of every triangle inequality
    x_ij <= x_il + x_lj with i < j and l outside {i, j} violated by more
    than tol, by a plain triple loop."""
    a = x.shape[0]
    found = []
    for i in range(a):
        for j in range(i + 1, a):
            for l in range(a):
                if l not in (i, j):
                    v = x[i, j] - x[i, l] - x[l, j]
                    if v > tol:
                        found.append((float(v), (i * a + j) * a + l))
    return found


def full_lp(g):
    """(c, const, rows) of the metric LP over all g.n nodes with every
    triangle row x_ij - x_il - x_lj <= 0 (i < j, l outside {i, j}) as
    CsrRows: min c.x + const counts each negative edge's cost
    C_ij*(1 - x_ij)."""
    n = g.n
    iu = np.triu_indices(n, k=1)
    var = np.zeros((n, n), dtype=int)
    var[iu] = np.arange(iu[0].size)
    var = var + var.T
    pos = g.signs > 0
    c = np.zeros(iu[0].size)
    c[var[g.pairs[:, 0], g.pairs[:, 1]]] = np.where(pos, g.costs, -g.costs)
    rows = [(var[i, j], var[i, l], var[l, j]) for i in range(n)
            for j in range(i + 1, n) for l in range(n) if l not in (i, j)]
    return c, g.costs[~pos].sum(), CsrRows(
        np.tile([1.0, -1.0, -1.0], len(rows)),
        np.array(rows, dtype=int).reshape(-1), np.arange(0, 3 * len(rows) + 1, 3),
        (len(rows), c.size))


def full_lp_objective(g):
    """Optimum of full_lp(g) for g.n >= 3 from one scipy linprog call with
    scipy's defaults."""
    c, const, rows = full_lp(g)
    a_ub = sparse.csr_array((rows.data, rows.indices, rows.indptr),
                            shape=rows.shape).toarray()
    res = linprog(c, A_ub=a_ub, b_ub=np.zeros(rows.shape[0]), bounds=(0.0, 1.0))
    assert res.success
    return res.fun + const


def round_lps(run, *args):
    """(c, A_ub, b_ub, result) of every corrclust.linprog call that
    run(*args) makes, with x copied before lp_relax snaps it in place."""
    calls, entry = [], corrclust.linprog

    def recorded(c, A_ub, b_ub):
        res = entry(c, A_ub=A_ub, b_ub=b_ub)
        calls.append((c, A_ub, b_ub, res._replace(x=res.x.copy())))
        return res

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(corrclust, "linprog", recorded)
        run(*args)
    return calls


def assert_entry_matches_scipy(calls):
    """Each recorded entry result equals scipy's public linprog, given the
    same rows as a csr_array, bounds, method and presolve setting, bitwise on
    x, slack, nit and the row duals."""
    for c, rows, b_ub, res in calls:
        a_ub = sparse.csr_array((rows.data, rows.indices, rows.indptr),
                                shape=rows.shape)
        want = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=(0, 1), method="highs",
                       options={"presolve": False})
        assert res.success and want.success
        assert np.array_equal(res.x, want.x)
        assert np.array_equal(res.slack, want.slack)
        assert res.nit == want.nit
        assert np.array_equal(res.row_dual, want.ineqlin.marginals)


def tied_symmetric(a, rng):
    """Symmetric (a, a) matrix, zero diagonal, entries on a quarter grid so
    that many violations tie."""
    x = np.triu(rng.integers(0, 5, size=(a, a)) / 4.0, k=1)
    return x + x.T


def with_isolated_nodes(g, extra, rng):
    """g's kept edges moved onto a random ascending subset of g.n + extra
    node ids, so that at least ``extra`` nodes touch no kept edge."""
    ids = np.sort(rng.choice(g.n + extra, g.n, replace=False))
    return make_graph(g.n + extra, [
        (int(ids[i]), int(ids[j]), int(s), float(c))
        for (i, j), s, c in zip(g.pairs, g.signs, g.costs)])


def kwik_cluster_lists(g, rng):
    """KwikCluster over neighbor lists and a list of remaining nodes, one
    rng.integers draw per pivot: the reference the array form must match."""
    neighbors = [[] for _ in range(g.n)]
    for (i, j), s in zip(g.pairs, g.signs):
        if s > 0:
            neighbors[int(i)].append(int(j))
            neighbors[int(j)].append(int(i))
    labels = np.zeros(g.n, dtype=int)
    remaining = list(range(g.n))
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


def round_regions_two_pass(m, g):
    """Region growing over a list of n-length ball masks, sized again in
    each of two passes (own radius, then interval top), with a last-resort
    ball of every unassigned node below 1/2: the reference the one-pass
    form must match."""
    n = g.n
    pos = g.signs > 0
    pi, pj = g.pairs[pos].T
    pc = g.costs[pos]
    factor = c1_constant(n) * math.log(n + 1)
    f_seed = m.objective / n
    x = m.x
    unassigned = np.ones(n, dtype=bool)
    labels = np.zeros(n, dtype=int)
    next_label = 0

    def first_fit(u, balls, radii):
        live = unassigned[pi] & unassigned[pj]
        for ball, radius in zip(balls, radii):
            in_i, in_j = ball[pi], ball[pj]
            crossing = live & (in_i ^ in_j)
            inside = live & in_i & in_j
            vol = f_seed + np.sum(pc[inside] * x[pi[inside], pj[inside]])
            if crossing.any():
                anchor = np.where(in_i[crossing], pi[crossing], pj[crossing])
                vol += np.sum(pc[crossing]
                              * np.clip(radius - x[u, anchor], 0.0, None))
            if pc[crossing].sum() <= factor * vol + 1e-12:
                return ball
        return None

    while unassigned.any():
        u = int(np.flatnonzero(unassigned)[0])
        dists = x[u]
        candidates = dists[unassigned & (dists < 0.5)]
        radii = np.unique(np.concatenate([[0.0], candidates]))
        balls = [unassigned & (dists <= r) for r in radii]
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


def signed_matrix(g):
    """(g.n, g.n) symmetric signed costs: +cost on a positive kept edge,
    -cost on a negative one, 0 elsewhere."""
    signed = np.zeros((g.n, g.n))
    i, j = g.pairs.T
    signed[i, j] = signed[j, i] = g.signs * g.costs
    return signed


@st.composite
def small_signed_graphs(draw, min_n=1, max_n=12):
    """Signed graphs of min_n to max_n nodes: often sparse, with isolated
    nodes, tiny or tied costs, and mixed signs that make the LP metric
    fractional."""
    n = draw(st.integers(min_n, max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    kept = draw(st.lists(st.sampled_from(pairs), unique=True)
                if pairs else st.just([]))
    cost = st.one_of(st.sampled_from([1e-9, 1e-3, 1.0]), st.floats(1e-6, 10.0))
    return make_graph(n, [(i, j, draw(st.sampled_from([-1, 1])), draw(cost))
                          for i, j in kept])


class TestDisagreementCost:
    def test_triangle_single_cluster(self):
        g = unit_triangle()
        assert disagreement_cost(g, validate_partition([1, 1, 1])) == 1.0

    def test_triangle_brute_minimum(self):
        # enumerate all Bell(3) = 5 partitions by hand
        g = unit_triangle()
        costs = [disagreement_cost(g, validate_partition(lab))
                 for lab in ([1, 1, 1], [1, 1, 2], [1, 2, 1], [1, 2, 2],
                             [1, 2, 3])]
        assert min(costs) == 1.0

    def test_empty_edges(self):
        g = make_graph(4, [])
        assert disagreement_cost(g, validate_partition([1, 2, 1, 2])) == 0.0

    def test_size_mismatch_rejected(self):
        with pytest.raises(DataError):
            disagreement_cost(unit_triangle(), validate_partition([1, 1]))


class TestViolatedTriangles:
    def test_matches_triple_loop(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            x = tied_symmetric(int(rng.integers(1, 9)), rng)
            found = naive_violations(x, TRIANGLE_TOL)
            want = [t for _, t in sorted(found, key=lambda f: -f[0])]
            assert _violated_triangles(x, TRIANGLE_TOL).tolist() == want

    @pytest.mark.parametrize("a", [41, 50])
    def test_matches_triple_loop_across_blocks(self, a):
        assert _BLOCK_ELEMENTS // (a * a) < a  # more than one block of rows
        x = tied_symmetric(a, np.random.default_rng(a))
        found = naive_violations(x, TRIANGLE_TOL)
        want = [t for _, t in sorted(found, key=lambda f: -f[0])]
        assert _violated_triangles(x, TRIANGLE_TOL).tolist() == want
        assert FractionalMetric(x=x, objective=0.0).max_triangle_violation() \
            == max(v for v, _ in found)

    def test_memory_bounded_by_block(self):
        """Separation holds one block of violations at a time, not an
        (a, a, a) tensor: at a = 100 (8 MB as a tensor), with about 79,000
        violated triangles to return, it peaks under 4 MB."""
        x = tied_symmetric(100, np.random.default_rng(5))
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            _violated_triangles(x, TRIANGLE_TOL)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


class TestLpRelax:
    def test_all_positive_graph(self):
        g = make_graph(3, [(0, 1, 1, 1.0), (0, 2, 1, 2.0), (1, 2, 1, 0.5)])
        m = lp_relax(g)
        assert np.allclose(m.x, 0.0)
        assert m.objective == pytest.approx(0.0, abs=1e-9)

    def test_all_negative_graph(self):
        g = make_graph(3, [(0, 1, -1, 1.0), (0, 2, -1, 2.0), (1, 2, -1, 0.5)])
        m = lp_relax(g)
        iu = np.triu_indices(3, k=1)
        assert np.allclose(m.x[iu], 1.0)
        assert m.objective == pytest.approx(0.0, abs=1e-9)

    def test_unit_triangle_objective(self):
        m = lp_relax(unit_triangle())
        assert m.objective == pytest.approx(1.0, abs=1e-7)

    def test_no_kept_edges_zero_metric(self):
        m = lp_relax(make_graph(3, []))
        assert np.array_equal(m.x, 1.0 - np.eye(3))
        assert m.objective == 0.0

    def test_isolated_nodes_at_distance_one(self):
        # nodes 1 and 3 touch no kept edge; the LP block of 0, 2, 4 is kept
        g = make_graph(5, [(0, 2, 1, 1.0), (2, 4, -1, 1.0)])
        m = lp_relax(g)
        active = np.ix_([0, 2, 4], [0, 2, 4])
        assert np.array_equal(m.x[active], lp_relax(
            make_graph(3, [(0, 1, 1, 1.0), (1, 2, -1, 1.0)])).x)
        for v in (1, 3):
            assert np.array_equal(np.delete(m.x[v], v), np.ones(4))
            assert m.x[v, v] == 0.0
        assert m.max_triangle_violation() <= TRIANGLE_TOL

    def test_sign_solution_needs_no_solve(self, monkeypatch):
        # two positive cliques joined by negative edges, plus node 6 on no
        # kept edge: the sign solution is already a clustering metric
        solves = []
        linprog = corrclust.linprog

        def counted_linprog(*args, **kwargs):
            solves.append(kwargs["A_ub"])
            return linprog(*args, **kwargs)

        monkeypatch.setattr(corrclust, "linprog", counted_linprog)
        labels = np.array([1, 1, 1, 2, 2, 2, 3])
        edges = [(i, j, 1 if labels[i] == labels[j] else -1, 0.5 + (i + j) % 3)
                 for i in range(6) for j in range(i + 1, 6)]
        m = lp_relax(make_graph(7, edges))
        assert solves == []
        assert np.array_equal(m.x, (labels[:, None] != labels).astype(float))
        assert m.objective == 0.0

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_clustered_signs_need_no_solve(self, data):
        # every pair of the active nodes kept, with the sign of a clustering:
        # the start is that clustering's metric, an optimum of cost 0
        n = data.draw(st.integers(2, 8))
        labels = np.array(data.draw(st.lists(st.integers(1, 3), min_size=n,
                                             max_size=n)))
        active = data.draw(st.lists(st.sampled_from(range(n)), min_size=2,
                                    unique=True).map(sorted))
        edges = [(i, j, 1 if labels[i] == labels[j] else -1,
                  data.draw(st.floats(1e-6, 10.0)))
                 for i in active for j in active if i < j]
        calls = round_lps(lp_relax, make_graph(n, edges))
        assert calls == []
        m = lp_relax(make_graph(n, edges))
        want = (labels[:, None] != labels).astype(float)
        off = np.setdiff1d(np.arange(n), active)
        want[off], want[:, off] = 1.0, 1.0
        np.fill_diagonal(want, 0.0)
        assert np.array_equal(m.x, want)
        assert m.objective == 0.0

    def test_bound_below_objective_raises(self, monkeypatch):
        # duals of 0 bound the unit triangle's LP by 0, below its optimum 1
        linprog = corrclust.linprog
        monkeypatch.setattr(corrclust, "linprog", lambda c, A_ub, b_ub: linprog(
            c, A_ub=A_ub, b_ub=b_ub)._replace(row_dual=np.zeros(len(b_ub))))
        with pytest.raises(SolverError, match="bound 0.0 its row duals give"):
            lp_relax(unit_triangle())

    def test_round_budget_exhausted(self, monkeypatch):
        # the start keeps the unit triangle's negative edge inside, so a
        # budget of one round ends after a solve it never checks
        monkeypatch.setattr(corrclust, "MAX_ROUNDS", 1)
        with pytest.raises(SolverError, match="round budget"):
            lp_relax(unit_triangle())

    def test_failed_solve_raises(self, monkeypatch):
        monkeypatch.setattr(corrclust, "linprog", lambda c, A_ub, b_ub:
                            LPResult(success=False, message="Infeasible"))
        with pytest.raises(SolverError, match="LP solve failed: Infeasible"):
            lp_relax(unit_triangle())

    def test_optimum_violating_its_own_row_raises(self, monkeypatch):
        # a faulty solver that hands back the rowless optimum as optimal:
        # its violated triangle is already a row (a seed row here), so the
        # round must not pass it
        def stuck_linprog(c, A_ub, b_ub):
            x = (c < 0).astype(float)
            return LPResult(success=True, message="Optimal", x=x,
                            slack=np.zeros(len(b_ub)), nit=0)

        monkeypatch.setattr(corrclust, "linprog", stuck_linprog)
        with pytest.raises(SolverError, match="violates one of its triangle"):
            lp_relax(unit_triangle())

    def test_every_violated_triangle_added_each_round(self, monkeypatch):
        # every triangle that one solve's optimum violates is a row of the
        # next solve, and the returned metric violates none
        metrics = []
        relax = corrclust.lp_relax

        def kept_relax(g):
            metrics.append(relax(g))
            return metrics[-1]

        monkeypatch.setattr(corrclust, "lp_relax", kept_relax)
        calls = round_lps(run_pipeline, RunConfig(
            dataset="crossbones", algo="lp", holdout=45, pairs=500,
            noise=0.03, seed=13))
        assert len(metrics) == 1 and len(calls) >= 2
        for (_, _, _, res), (_, rows, _, _) in zip(calls, calls[1:]):
            # the optimum as lp_relax snaps it, over the a active nodes
            x = np.where(res.x < 1e-9, 0.0, np.where(res.x > 1 - 1e-9, 1.0, res.x))
            a = int(round((1 + math.sqrt(1 + 8 * x.size)) / 2))
            var = np.zeros((a, a), dtype=int)
            var[np.triu_indices(a, k=1)] = np.arange(x.size)
            var = var + var.T
            xm = np.where(np.eye(a, dtype=bool), 0.0, x[var])
            i, j, l = np.unravel_index(_violated_triangles(xm, TRIANGLE_TOL),
                                       (a, a, a))
            have = set(map(tuple, rows.indices.reshape(-1, 3).tolist()))
            want = zip(var[i, j].tolist(), var[i, l].tolist(), var[l, j].tolist())
            assert set(want) <= have
        assert metrics[0].max_triangle_violation() <= TRIANGLE_TOL

    @pytest.mark.parametrize("seed", range(1, 6))
    def test_one_solve_per_sparse_edge_level_instance(self, monkeypatch, seed):
        # the first vertex HiGHS returns without presolve violates none of
        # the triangles left out of its rows
        solves = []
        linprog = corrclust.linprog

        def counted_linprog(*args, **kwargs):
            solves.append(kwargs["A_ub"])
            return linprog(*args, **kwargs)

        monkeypatch.setattr(corrclust, "linprog", counted_linprog)
        run_pipeline(RunConfig(dataset="edge_level", seed=seed, algo="lp",
                               sparsify=0.5, edge_spec=EDGE_SPEC))
        assert len(solves) == 1

    @given(small_signed_graphs(min_n=3, max_n=8))
    @settings(max_examples=60, deadline=None)
    def test_objective_equals_full_lp(self, g):
        # lazy rows reach the optimum of the LP that holds every row
        assert abs(lp_relax(g).objective - full_lp_objective(g)) <= 1e-7

    @given(st.data())
    @settings(max_examples=25, deadline=None)
    def test_objective_invariant_under_relabeling(self, data):
        n = data.draw(st.integers(3, 7))
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        kept = data.draw(st.lists(st.sampled_from(pairs), min_size=1,
                                  unique=True))
        edges = [(i, j, data.draw(st.sampled_from([-1, 1])),
                  data.draw(st.floats(0.1, 2.0))) for i, j in kept]
        perm = data.draw(st.permutations(range(n)))
        relabeled = [(min(perm[i], perm[j]), max(perm[i], perm[j]), s, c)
                     for i, j, s, c in edges]
        want = lp_relax(make_graph(n, edges)).objective
        got = lp_relax(make_graph(n, relabeled)).objective
        assert got == pytest.approx(want, rel=1e-6, abs=1e-6)

    def test_triangle_feasibility_on_random_instances(self):
        for seed in range(10):
            g = random_graph(7, np.random.default_rng(seed), missing_frac=0.2)
            m = lp_relax(g)
            assert m.max_triangle_violation() <= TRIANGLE_TOL
            assert np.all(m.x >= 0.0) and np.all(m.x <= 1.0)
            assert np.allclose(np.diag(m.x), 0.0)


class TestPartitionStart:
    @given(small_signed_graphs(max_n=8))
    @settings(max_examples=100, deadline=None)
    def test_moves_end_at_local_optimum(self, g):
        # no move of one node to another cluster or to a new singleton
        # lowers the disagreement cost by more than 1e-12
        labels = _pivot_moves(signed_matrix(g))
        cost = disagreement_cost(g, validate_partition(labels))
        for v in range(g.n):
            for target in [*np.unique(labels), g.n]:
                moved = labels.copy()
                moved[v] = target
                assert disagreement_cost(g, validate_partition(moved)) \
                    >= cost - 1e-12 * max(1.0, cost)

    @given(small_signed_graphs(max_n=8))
    @settings(max_examples=100, deadline=None)
    def test_seed_rows_are_tight_certificate_rows(self, g):
        # each row x_ij <= x_il + x_lj is tight at the clustering and holds
        # an edge it disagrees with where the edge needs dual weight: a
        # negative edge kept inside as x_ij, or a cut positive one on the
        # right; each such edge and side gives at most SEED_ROWS rows
        signed = signed_matrix(g)
        labels = _pivot_moves(signed)
        cut = (labels[:, None] != labels).astype(float)
        n = g.n
        seeds = _seed_rows(signed, labels)
        assert np.array_equal(seeds, np.unique(seeds))
        per_side = {}
        for i, j, l in zip(*np.unravel_index(seeds, (n, n, n))):
            assert i < j and l not in (i, j)
            assert cut[i, j] == cut[i, l] + cut[l, j]
            holds = []
            if signed[i, j] < 0 and not cut[i, j]:
                holds.append(((i, j), None))
            for u in (i, j):  # a cut positive (u, l), on l's side
                if signed[u, l] > 0 and cut[u, l]:
                    holds.append(((min(u, l), max(u, l)), l))
            assert holds
            for key in holds:
                per_side[key] = per_side.get(key, 0) + 1
        assert max(per_side.values(), default=0) <= SEED_ROWS

    @pytest.mark.parametrize("edges, want", [
        # one cluster of six with the negative edge (0, 1) inside: the rows
        # (0, 1, l) for the three l with the largest min(C_0l, C_1l)
        ([(0, 1, -1, 0.5)] + [(i, j, 1, 10.0) for i in range(6)
                              for j in range(i + 1, 6) if (i, j) != (0, 1)
                              and i != 1]
         + [(1, l, 1, c) for l, c in zip(range(2, 6), (1.0, 4.0, 3.0, 2.0))],
         [(0, 1, l) for l in (3, 4, 5)]),
        # the cluster 0..5 and node 6 cut off it across the positive edge
        # (0, 6): the rows (w, 6, 0) for the three w in 0's cluster with the
        # largest min(C_6w, C_0w)
        ([(0, 6, 1, 0.5)] + [(i, j, 1, 10.0) for i in range(6)
                             for j in range(i + 1, 6)]
         + [(w, 6, -1, c) for w, c in zip(range(1, 6), (1.0, 4.0, 3.0, 2.0, 5.0))],
         [(w, 6, 0) for w in (2, 3, 5)]),
    ])
    def test_seed_rows_keep_the_best_agreeing(self, edges, want):
        g = make_graph(max(max(i, j) for i, j, _, _ in edges) + 1, edges)
        signed = signed_matrix(g)
        labels = _pivot_moves(signed)
        assert validate_partition(labels).labels.tolist() == [1] * 6 + [2] * (g.n - 6)
        n = g.n
        assert _seed_rows(signed, labels).tolist() == [
            (i * n + j) * n + l for i, j, l in want]

    @given(small_signed_graphs(max_n=8), st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_dual_bound_below_optimum(self, g, seed):
        # any y >= 0 over any triangle rows bounds the optimal disagreement
        # cost from below
        rng = np.random.default_rng(seed)
        c, const, rows = full_lp(g)
        y = rng.exponential(rng.choice([1e-3, 1.0, 10.0]), rows.shape[0])
        y[rng.random(y.size) < rng.random()] = 0.0
        _, opt = brute_force_optimum(g)
        assert dual_bound(c, const, rows, y) <= opt + 1e-9 * max(1.0, opt)


class TestHighsEntry:
    @given(small_signed_graphs(min_n=3, max_n=8))
    @settings(max_examples=60, deadline=None)
    def test_matches_scipy_linprog_on_small_graphs(self, g):
        assert_entry_matches_scipy(round_lps(lp_relax, g))

    def test_matches_scipy_linprog_on_crossbones(self):
        calls = round_lps(run_pipeline, RunConfig(
            dataset="crossbones", algo="lp", holdout=45, pairs=500,
            noise=0.03, seed=13))
        assert calls
        assert_entry_matches_scipy(calls)

    def test_infeasible_lp_reports_status(self):
        res = corrclust.linprog(np.array([1.0]),
                                A_ub=sparse.csr_array(np.array([[1.0]])),
                                b_ub=np.array([-1.0]))
        assert not res.success
        assert res.message == "Infeasible"

    def test_rejected_model_reports_status(self):
        # one row that names column 0 twice: passModel refuses the matrix
        a_ub = CsrRows(np.array([1.0, -1.0]), np.array([0, 0]),
                       np.array([0, 2]), (1, 2))
        res = corrclust.linprog(np.ones(2), A_ub=a_ub, b_ub=np.zeros(1))
        assert not res.success
        assert res.message == "Model error"


class TestRoundRegions:
    def test_zero_metric_single_cluster(self):
        g = make_graph(3, [(0, 1, 1, 1.0), (0, 2, 1, 1.0), (1, 2, 1, 1.0)])
        m = FractionalMetric(x=np.zeros((3, 3)), objective=0.0)
        p = round_regions(m, g)
        assert p.k == 1

    def test_unit_metric_all_singletons(self):
        g = make_graph(3, [(0, 1, -1, 1.0), (0, 2, -1, 1.0), (1, 2, -1, 1.0)])
        x = np.ones((3, 3)) - np.eye(3)
        m = FractionalMetric(x=x, objective=0.0)
        p = round_regions(m, g)
        assert p.k == 3

    def test_metric_must_cover_graph_nodes(self):
        m = FractionalMetric(x=np.zeros((2, 2)), objective=0.0)
        with pytest.raises(DataError, match="cover"):
            round_regions(m, unit_triangle())

    def test_graph_without_nodes_rejected(self):
        with pytest.raises(DataError, match="no nodes"):
            solve(make_graph(0, []))

    @given(small_signed_graphs())
    @settings(max_examples=200, deadline=None)
    def test_matches_two_pass_loop(self, g):
        m = lp_relax(g)
        want = round_regions_two_pass(m, g)
        assert np.array_equal(round_regions(m, g).labels, want.labels)

    def test_no_fitting_ball_raises(self, monkeypatch):
        # the heavy negative edge puts nodes 1 and 2 at distance 1, so every
        # LP optimum cuts a positive edge of node 0 at each radius below 1/2
        # and, with factor 0, no ball fits
        g = make_graph(3, [(0, 1, 1, 1.0), (0, 2, 1, 1.0), (1, 2, -1, 10.0)])
        monkeypatch.setattr(corrclust, "approximation_factor", lambda n: 0.0)
        with pytest.raises(SolverError, match="seed node 0"):
            solve(g)

    def test_isolated_nodes_become_singletons(self):
        g = make_graph(5, [(0, 1, 1, 1.0)], )
        p, cert = solve(g)
        assert p.n == 5
        assert p.labels[0] == p.labels[1]
        assert len({p.labels[2], p.labels[3], p.labels[4]}) == 3


class TestOracleSandwich:
    def test_lp_oracle_rounded_ordering(self):
        # lp lower bound <= oracle <= rounded <= c1*ln(n+1)*oracle, also on
        # graphs with nodes that touch no kept edge
        for seed in range(20):
            rng = np.random.default_rng(100 + seed)
            n = int(rng.integers(5, 9))
            base = random_graph(n, rng, missing_frac=0.15)
            small = random_graph(int(rng.integers(3, 7)), rng, missing_frac=0.3)
            isolated = with_isolated_nodes(small, int(rng.integers(1, 3)), rng)
            for g in (base, isolated):
                n = g.n
                m = lp_relax(g)
                _, opt = brute_force_optimum(g)
                part = round_regions(m, g)
                rounded = disagreement_cost(g, part)
                factor = c1_constant(n) * math.log(n + 1)
                assert m.objective <= opt + 1e-6
                assert opt <= rounded + 1e-6
                if opt > 1e-9 or rounded > 1e-9:
                    assert rounded <= factor * opt + 1e-6
                for v in np.setdiff1d(np.arange(n), g.pairs):
                    assert np.sum(part.labels == part.labels[v]) == 1

    def test_cost_scaling_equivariance(self):
        rng = np.random.default_rng(5)
        g = random_graph(6, rng)
        lam = 3.7
        scaled = make_graph(6, [(int(i), int(j), int(s), float(c * lam))
                                for (i, j), s, c in zip(g.pairs, g.signs,
                                                        g.costs)])
        m1, m2 = lp_relax(g), lp_relax(scaled)
        assert m2.objective == pytest.approx(lam * m1.objective, rel=1e-6)
        p1, o1 = brute_force_optimum(g)
        p2, o2 = brute_force_optimum(scaled)
        assert o2 == pytest.approx(lam * o1)
        assert np.array_equal(p1.labels, p2.labels)
        r1 = disagreement_cost(g, round_regions(m1, g))
        r2 = disagreement_cost(scaled, round_regions(m2, scaled))
        assert r2 == pytest.approx(lam * r1, rel=1e-6)


class TestKwikCluster:
    def test_all_positive_single_cluster(self, rng):
        g = make_graph(4, [(i, j, 1, 1.0) for i in range(4)
                           for j in range(i + 1, 4)])
        assert kwik_cluster(g, rng).k == 1

    def test_all_negative_singletons(self, rng):
        g = make_graph(4, [(i, j, -1, 1.0) for i in range(4)
                           for j in range(i + 1, 4)])
        assert kwik_cluster(g, rng).k == 4

    def test_unit_triangle_every_pivot_costs_one(self):
        # pivot a -> {a,b,c} pays the internal - edge; pivot b or c pays the
        # one cut + edge: cost 1 for every pivot, well under 3*OPT = 3
        g = unit_triangle()
        costs = {disagreement_cost(g, kwik_cluster(g, np.random.default_rng(s)))
                 for s in range(200)}
        assert costs == {1.0}

    def test_seed_determinism(self):
        g = random_graph(8, np.random.default_rng(9))
        a = kwik_cluster(g, np.random.default_rng(7))
        b = kwik_cluster(g, np.random.default_rng(7))
        assert np.array_equal(a.labels, b.labels)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_list_based_loop(self, data):
        n = data.draw(st.integers(1, 12))
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        kept = data.draw(st.lists(st.sampled_from(pairs), unique=True)
                         if pairs else st.just([]))
        edges = [(i, j, data.draw(st.sampled_from([-1, 1])), 1.0)
                 for i, j in kept]
        g = make_graph(n, edges)
        seed = data.draw(st.integers(0, 2**32 - 1))
        want = kwik_cluster_lists(g, np.random.default_rng(seed))
        got = kwik_cluster(g, np.random.default_rng(seed))
        assert np.array_equal(got.labels, want.labels)


class TestBruteForce:
    def test_partition_enumeration_is_bell(self):
        assert sum(1 for _ in _set_partitions(3)) == 5
        assert sum(1 for _ in _set_partitions(5)) == 52

    def test_unit_triangle(self):
        _, cost = brute_force_optimum(unit_triangle())
        assert cost == 1.0

    def test_two_positive_cliques(self):
        edges = []
        for group in ([0, 1, 2], [3, 4, 5]):
            for a in range(3):
                for b in range(a + 1, 3):
                    edges.append((group[a], group[b], 1, 1.0))
        for i in [0, 1, 2]:
            for j in [3, 4, 5]:
                edges.append((i, j, -1, 1.0))
        p, cost = brute_force_optimum(make_graph(6, edges))
        assert cost == 0.0
        assert p.labels.tolist() == [1, 1, 1, 2, 2, 2]

    def test_single_negative_edge(self):
        p, cost = brute_force_optimum(make_graph(2, [(0, 1, -1, 1.0)]))
        assert cost == 0.0
        assert p.k == 2

    def test_size_cap(self):
        with pytest.raises(DataError):
            brute_force_optimum(make_graph(13, [(0, 1, 1, 1.0)]))


class TestSolve:
    def test_c1_at_100(self):
        assert c1_constant(100) == pytest.approx(2.0 + 1.0 / math.log(101))
        assert c1_constant(100) == pytest.approx(2.2167, abs=1e-4)

    def test_all_positive_zero_cost(self):
        g = make_graph(3, [(0, 1, 1, 1.0), (0, 2, 1, 1.0), (1, 2, 1, 1.0)])
        part, cert = solve(g)
        assert part.k == 1
        assert cert.lp_lower_bound == pytest.approx(0.0, abs=1e-9)
        assert cert.rounded_cost == 0.0

    def test_lower_bound_below_rounded(self):
        for seed in range(10):
            g = random_graph(7, np.random.default_rng(200 + seed))
            _, cert = solve(g)
            assert cert.lp_lower_bound <= cert.rounded_cost + 1e-6

    def test_empty_graph_all_singletons(self):
        part, cert = solve(make_graph(4, []))
        assert part.k == 4
        assert cert.lp_lower_bound == 0.0
        assert cert.bound_rhs == 0.0

    def test_certificate_serialization(self):
        _, cert = solve(unit_triangle())
        d = asdict(cert)
        assert set(d) == {"lp_lower_bound", "rounded_cost", "c1",
                          "bound_rhs", "n"}
        assert d["n"] == 3
        assert d["bound_rhs"] == pytest.approx(
            d["c1"] * math.log(4) * d["lp_lower_bound"])
