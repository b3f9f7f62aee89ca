"""LP relaxation, region-growing rounding, pivot heuristic, and the exact
oracle for weighted MinimizeDisagreements."""
import math

import numpy as np
import pytest

from conftest import make_graph, random_graph, unit_triangle
from edgeclust.core import validate_partition
from edgeclust.corrclust import (FractionalMetric, TRIANGLE_TOL,
                                 brute_force_optimum, c1_constant,
                                 disagreement_cost, kwik_cluster, lp_relax,
                                 round_regions, solve, _set_partitions)
from edgeclust.errors import DataError


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

    def test_no_kept_edges_rejected(self):
        with pytest.raises(DataError):
            lp_relax(make_graph(3, []))

    def test_triangle_feasibility_on_random_instances(self):
        for seed in range(10):
            g = random_graph(7, np.random.default_rng(seed), missing_frac=0.2)
            m = lp_relax(g)
            assert m.max_triangle_violation() <= TRIANGLE_TOL
            assert np.all(m.x >= 0.0) and np.all(m.x <= 1.0)
            assert np.allclose(np.diag(m.x), 0.0)


class TestRoundRegions:
    def test_zero_metric_single_cluster(self):
        g = make_graph(3, [(0, 1, 1, 1.0), (0, 2, 1, 1.0), (1, 2, 1, 1.0)])
        m = FractionalMetric(nodes=np.arange(3), x=np.zeros((3, 3)),
                             objective=0.0)
        p = round_regions(m, g)
        assert p.k == 1

    def test_unit_metric_all_singletons(self):
        g = make_graph(3, [(0, 1, -1, 1.0), (0, 2, -1, 1.0), (1, 2, -1, 1.0)])
        x = np.ones((3, 3)) - np.eye(3)
        m = FractionalMetric(nodes=np.arange(3), x=x, objective=0.0)
        p = round_regions(m, g)
        assert p.k == 3

    def test_isolated_nodes_become_singletons(self):
        g = make_graph(5, [(0, 1, 1, 1.0)], )
        p, cert = solve(g)
        assert p.n == 5
        assert p.labels[0] == p.labels[1]
        assert len({p.labels[2], p.labels[3], p.labels[4]}) == 3


class TestOracleSandwich:
    def test_lp_oracle_rounded_ordering(self):
        # lp lower bound <= oracle <= rounded <= c1*ln(n+1)*oracle
        for seed in range(20):
            rng = np.random.default_rng(100 + seed)
            n = int(rng.integers(5, 9))
            g = random_graph(n, rng, missing_frac=0.15)
            m = lp_relax(g)
            _, opt = brute_force_optimum(g)
            part = round_regions(m, g)
            rounded = disagreement_cost(g, part)
            factor = c1_constant(n) * math.log(n + 1)
            assert m.objective <= opt + 1e-6
            assert opt <= rounded + 1e-6
            if opt > 1e-9 or rounded > 1e-9:
                assert rounded <= factor * opt + 1e-6

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
        d = cert.to_dict()
        assert set(d) == {"lp_lower_bound", "rounded_cost", "c1",
                          "bound_rhs", "n"}
        assert d["n"] == 3
        assert d["bound_rhs"] == pytest.approx(
            d["c1"] * math.log(4) * d["lp_lower_bound"])
