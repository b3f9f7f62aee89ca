"""KDE fitting, the density query contract, log-odds, and signed-graph
construction."""
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from conftest import StepDensity, make_graph
from edgeclust.datagen import EdgeLevelSpec, gen_edge_level
from edgeclust.densities import (LOG_FLOOR, GaussianDensity, MixtureDensity,
                                 UniformBoxDensity, parse_density)
from edgeclust.density import (_CHUNK_ELEMENTS, _LOG_TINY, DensityModel,
                               LOG_ODDS_CLAMP, SignedWeightedGraph,
                               build_signed_graph, kde_fit, read_graph_tsv,
                               write_graph_tsv)
from edgeclust.edge_features import EdgeFeatureSet, all_pairs
from edgeclust.errors import ConfigError, DataError

# one density of each kind in dimension d
DENSITIES = {
    "kde": lambda d: kde_fit(np.arange(4.0 * d).reshape(4, d) ** 2),
    "gaussian": lambda d: GaussianDensity(mean=np.zeros(d), sigma=np.ones(d)),
    "uniform": lambda d: UniformBoxDensity(low=np.zeros(d),
                                           high=np.full(d, 4.0)),
    "mixture": lambda d: MixtureDensity(components=(
        GaussianDensity(mean=np.zeros(d), sigma=np.ones(d)),
        UniformBoxDensity(low=np.zeros(d), high=np.full(d, 4.0)))),
}


NAN, INF = float("nan"), float("inf")
UNIT = {"kind": "gaussian", "mean": [0.0], "sigma": [1.0]}


@pytest.mark.parametrize("spec", [
    dict(UNIT, sigma=[NAN]), dict(UNIT, sigma=[INF]), dict(UNIT, sigma=[0.0]),
    dict(UNIT, mean=[NAN]), dict(UNIT, mean=[INF]), dict(UNIT, mean=[-INF]),
    {"kind": "uniform", "low": [NAN], "high": [1.0]},
    {"kind": "uniform", "low": [-INF], "high": [1.0]},
    {"kind": "uniform", "low": [0.0], "high": [INF]},
    {"kind": "uniform", "low": [0.0], "high": [NAN]},
    {"kind": "mixture", "components": [UNIT, UNIT], "weights": [NAN, 1.0]},
    {"kind": "mixture", "components": [UNIT, UNIT], "weights": [INF, 1.0]},
    {"kind": "mixture", "components": [UNIT, UNIT], "weights": [0.0, 1.0]},
    # each vector is 1-D and nonempty
    dict(UNIT, mean=[], sigma=[]),
    dict(UNIT, mean=[[0.0, 0.0], [1.0, 1.0]], sigma=[[1.0, 1.0], [1.0, 1.0]]),
    dict(UNIT, mean=[[0.0, 0.0]], sigma=[[1.0, 1.0]]),
    {"kind": "uniform", "low": [], "high": []},
    {"kind": "uniform", "low": [[0.0, 0.0], [1.0, 1.0]],
     "high": [[2.0, 2.0], [2.0, 2.0]]},
    {"kind": "uniform", "low": [[0.0, 0.0]], "high": [[1.0, 1.0]]},
])
def test_parse_density_rejects_bad_parameters(spec):
    with pytest.raises(ConfigError):
        parse_density(spec)


def test_mixture_sample_draws_multinomial_counts_per_component():
    boxes = (UniformBoxDensity(low=[0.0, 0.0], high=[1.0, 1.0]),
             UniformBoxDensity(low=[2.0, 2.0], high=[3.0, 3.0]))
    mix = MixtureDensity(components=boxes, weights=[1.0, 3.0])
    x = mix.sample(np.random.default_rng(8), 500)
    assert x.shape == (500, 2)
    inside = np.stack([np.all((x >= b.low) & (x <= b.high), axis=1)
                       for b in boxes], axis=1)
    assert np.all(inside.sum(axis=1) == 1)
    want = np.random.default_rng(8).multinomial(500, mix.weights)
    assert inside.sum(axis=0).tolist() == want.tolist()


def test_mixture_weights_near_the_float_limit_normalize():
    mix = MixtureDensity((GaussianDensity([0.0], [1.0]),) * 2, [1e308, 1e308])
    assert mix.weights.tolist() == [0.5, 0.5]
    assert np.isfinite(mix.logpdf_many([[0.0]])).all()


class FixedLogs:
    """Mixture component whose log-density at query i is column[i]."""

    d = 1

    def __init__(self, column):
        self.column = column

    def logpdf_many(self, x):
        return self.column


def test_mixture_logsumexp_matches_scipy(rng):
    """The mixture's numpy log-sum-exp against scipy's weighted logsumexp:
    exact on the edge rows (all -inf, a NaN, at -1e300, a tied maximum) and
    with a zero weight, to 1e-14 relative on random rows."""
    logs = rng.normal(scale=50.0, size=(500, 4))
    logs[0] = -INF
    logs[1, 2] = NAN
    logs[2] = -1e300
    logs[3, :2], logs[3, 2:] = -1e300, -INF
    logs[4, [0, 3]] = logs[4].max() + 1.0
    mix = MixtureDensity(tuple(FixedLogs(col) for col in logs.T),
                         rng.uniform(0.1, 3.0, size=4))
    got = mix.logpdf_many(np.zeros((len(logs), 1)))
    want = logsumexp(logs, axis=1, b=mix.weights)
    assert np.array_equal(got[:5], want[:5], equal_nan=True)
    assert got[0] == -INF and np.isnan(got[1]) and got[2] == got[3] == -1e300
    np.testing.assert_allclose(got[5:], want[5:], rtol=1e-14, atol=0.0)
    # a weight that normalizes to 0 adds nothing, even at the row max
    tiny = MixtureDensity(tuple(FixedLogs(col) for col in logs[5:, :2].T),
                          [5e-324, 1e10])
    assert tiny.weights[0] == 0.0
    assert np.array_equal(tiny.logpdf_many(np.zeros((len(logs) - 5, 1))),
                          logsumexp(logs[5:, :2], axis=1, b=tiny.weights))


def log_odds(p1, p0, xs):
    """Per-point (signs, costs) of the clamped log-odds, read off the signed
    graph over pairs (0, t+1); a pair dropped at threshold 0 is an exact tie
    and reads as sign 0, cost 0."""
    xs = np.asarray(xs, dtype=float).reshape(len(xs), -1)
    pairs = np.column_stack([np.zeros(len(xs), dtype=int),
                             np.arange(1, len(xs) + 1)])
    g = build_signed_graph(EdgeFeatureSet(pairs=pairs, vectors=xs), p1, p0)
    signs, costs = np.zeros(len(xs), dtype=int), np.zeros(len(xs))
    signs[g.pairs[:, 1] - 1] = g.signs
    costs[g.pairs[:, 1] - 1] = g.costs
    return signs, costs


class TestKdeFit:
    def test_scott_rule_1d(self, rng):
        draws = rng.normal(0.0, 1.0, size=(1000, 1))
        model = kde_fit(draws)
        sigma = draws.std(ddof=1)
        assert model.bandwidths[0] == pytest.approx(sigma * 1000 ** (-1 / 5))

    def test_constant_column_floored(self):
        rows = np.column_stack([np.arange(10.0), np.full(10, 3.0)])
        model = kde_fit(rows)
        assert model.bandwidths[1] > 0
        assert np.isfinite(model.logpdf_many(np.array([0.0, 3.0]))[0])

    def test_single_point_rejected(self):
        with pytest.raises(DataError):
            kde_fit(np.zeros((1, 2)))

    def test_two_point_model_evaluable(self):
        model = kde_fit(np.array([[0.0], [1.0]]))
        val = model.logpdf_many(np.array([0.0]))[0]
        assert np.isfinite(val)
        assert val >= LOG_FLOOR

    @pytest.mark.filterwarnings("ignore:invalid value")
    def test_non_finite_vector_rejected(self):
        with pytest.raises(DataError):
            kde_fit(np.array([[0.0], [1.0], [np.inf]]))

    def test_overflowing_spread_rejected_without_warning(self):
        # the squares in the spread overflow; with warnings as errors only
        # the bandwidth check may speak
        with pytest.raises(DataError, match="bandwidths must be finite"):
            kde_fit(np.array([[-1e200], [1e200], [0.0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0, 0.0])
    def test_bad_bandwidth_rejected(self, bad):
        with pytest.raises(DataError):
            DensityModel(training_points=np.zeros((2, 2)),
                         bandwidths=np.array([1.0, bad]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_training_point_rejected(self, bad):
        with pytest.raises(DataError):
            DensityModel(training_points=np.array([[0.0], [bad]]),
                         bandwidths=np.array([1.0]))


@pytest.mark.parametrize("kind", sorted(DENSITIES))
def test_flat_query_holds_size_over_d_points(kind):
    """Every logpdf_many reads a flat query as size/d points, and raises
    DataError when d does not divide its size."""
    one = DENSITIES[kind](1)
    assert np.array_equal(one.logpdf_many([1.0, 2.0, 3.0]),
                          one.logpdf_many([[1.0], [2.0], [3.0]]))
    two = DENSITIES[kind](2)
    assert np.array_equal(two.logpdf_many([1.0, 2.0, 3.0, 0.5]),
                          two.logpdf_many([[1.0, 2.0], [3.0, 0.5]]))
    with pytest.raises(DataError):
        two.logpdf_many([1.0, 2.0, 3.0])


class TestKdeLogpdf:
    def test_single_kernel_closed_form(self):
        model = DensityModel(training_points=np.array([[0.0]]),
                             bandwidths=np.array([1.0]))
        out = model.logpdf_many(np.array([0.0]))[0]
        assert out == pytest.approx(math.log(1.0 / math.sqrt(2 * math.pi)))

    def test_far_tail_clamped(self):
        model = DensityModel(training_points=np.array([[0.0]]),
                             bandwidths=np.array([1.0]))
        assert model.logpdf_many(np.array([1e6]))[0] == LOG_FLOOR

    @pytest.mark.parametrize("far", [1e200, -1e200, np.inf])
    def test_overflowing_distance_clamped(self, far):
        model = DensityModel(training_points=np.array([[0.0, 1.0], [2.0, 1.0]]),
                             bandwidths=np.array([1.0, 0.5]))
        assert model.logpdf_many(np.array([[1.0, far]]))[0] == LOG_FLOOR

    def test_nan_query_gives_nan(self):
        model = kde_fit(np.array([[0.0, 1.0], [2.0, 0.5]]))
        out = model.logpdf_many(np.array([[np.nan, 0.0], [1.0, 1.0]]))
        assert np.isnan(out[0])
        assert np.isfinite(out[1])

    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 40),
           d=st.integers(1, 3), offset=st.integers(-10**6, 10**6),
           spread=st.integers(1, 2**12), constant_column=st.booleans(),
           extra=st.integers(1, 40))
    @settings(max_examples=30, deadline=None)
    @example(seed=0, m=40, d=2, offset=10**6, spread=64,
             constant_column=True, extra=1)
    def test_matches_direct_formula(self, seed, m, d, offset, spread,
                                    constant_column, extra):
        """logpdf_many equals the broadcast log-sum-exp over every training
        point to 1e-9, on data far from the origin and with the floored
        bandwidth of a constant column. Points and queries lie on a 2^-10
        grid shifted by an integer, so every input is exact."""
        rng = np.random.default_rng(seed)
        grid = rng.integers(-spread, spread + 1, size=(m, d))
        if constant_column:
            grid[:, 0] = grid[0, 0]
        pts = offset + grid / 1024.0
        model = kde_fit(pts) if m >= 2 else DensityModel(
            training_points=pts, bandwidths=np.full(d, 2.0 ** -6))
        # more queries than one chunk holds, each near a training point
        nq = _CHUNK_ELEMENTS // m + extra
        jitter = rng.integers(-8, 9, size=(nq, d))
        if constant_column:
            jitter[:, 0] = 0
        queries = pts[rng.integers(m, size=nq)] + jitter / 1024.0
        z = (queries[:, None, :] - pts[None, :, :]) / model.bandwidths
        want = (logsumexp(-0.5 * np.sum(z * z, axis=2), axis=1)
                - np.sum(np.log(model.bandwidths * np.sqrt(2.0 * np.pi)))
                - np.log(m))
        got = model.logpdf_many(queries)
        assert np.max(np.abs(got - np.maximum(want, LOG_FLOOR))) <= 1e-9

    def test_underflowing_row_is_shifted(self):
        """Bandwidths of 1e-160 in d = 2 give a normalizing constant near
        +735, so a query whose only kernel exponent is -760 still has a
        log-density near -25, above LOG_FLOOR. exp(-760) underflows to 0,
        so that row needs the log-sum-exp shift; the query at the training
        point, in the same chunk, does not."""
        bw = np.full(2, 1e-160)
        model = DensityModel(training_points=np.zeros((1, 2)), bandwidths=bw)
        queries = np.array([[np.sqrt(2 * 760.0) * 1e-160, 0.0], [0.0, 0.0]])
        expo = -0.5 * np.sum((queries / bw) ** 2, axis=1)
        assert expo[0] < -745 and np.exp(expo[0]) == 0.0
        want = (logsumexp(expo[:, None], axis=1)
                - np.sum(np.log(bw * np.sqrt(2.0 * np.pi))))
        assert want[0] > LOG_FLOOR
        got = model.logpdf_many(queries)
        assert np.max(np.abs(got - want)) <= 1e-9

    def test_underflowing_rows_past_the_first_chunk(self):
        """Rows that need the shift sit in later chunks, among ordinary
        rows, and each gets its own value back. A 40 x 25 lattice of
        training points one bandwidth apart (bandwidths 1e-160, as above)
        makes a chunk 65 rows. Queries 39 bandwidths below the lattice have
        every exponent under -745 (all kernels underflow to 0), and one at
        38.5 has its largest at -740, where exp keeps only a few bits of a
        subnormal; both need the shift. The query at 37.6 has its largest
        exponent just above _LOG_TINY, so its row sum is below 2 m tiny and
        goes through the shift step unshifted."""
        bw = np.full(2, 1e-160)
        lattice = np.stack(np.meshgrid(np.arange(40.0), np.arange(25.0)),
                           axis=-1).reshape(-1, 2)
        model = DensityModel(training_points=lattice * 1e-160, bandwidths=bw)
        m = model.m
        rows = _CHUNK_ELEMENTS // m
        nq = 6 * rows + 7
        rng = np.random.default_rng(5)
        queries = lattice[rng.integers(m, size=nq)] + rng.uniform(-2, 2, (nq, 2))
        deep = [rows, rows + 1, 2 * rows + 3, 4 * rows - 1, nq - 1]
        queries[deep] = np.column_stack([np.arange(5.0) * 7, np.full(5, -39.0)])
        subnormal = 5 * rows
        queries[subnormal] = [10.0, -np.sqrt(2 * 740.0)]
        edge = 3 * rows + 2
        queries[edge] = [20.0, -np.sqrt(-2 * (_LOG_TINY + 0.3))]
        queries *= 1e-160
        z = (queries[:, None, :] - model.training_points[None, :, :]) / bw
        expo = -0.5 * np.sum(z * z, axis=2)
        assert np.all(expo[deep] < -745) and np.all(np.exp(expo[deep]) == 0.0)
        assert -745 < expo[subnormal].max() < _LOG_TINY - 1
        assert _LOG_TINY < expo[edge].max() < _LOG_TINY + 1
        assert np.exp(expo[edge]).sum() <= 2 * m * np.finfo(float).tiny
        want = (logsumexp(expo, axis=1)
                - np.sum(np.log(bw * np.sqrt(2.0 * np.pi))) - np.log(m))
        assert np.all(want > LOG_FLOOR)
        got = model.logpdf_many(queries)
        assert np.max(np.abs(got - want)) <= 1e-9

    def test_same_bytes_with_one_and_two_blas_threads(self):
        """3,000 queries x 2,500 points in d = 2, large enough for OpenBLAS
        to split both the chunk products and the row sums over threads,
        give the same bytes with one BLAS thread and with two."""
        script = ("import sys\n"
                  "import numpy as np\n"
                  "from edgeclust.density import kde_fit\n"
                  "rng = np.random.default_rng(11)\n"
                  "model = kde_fit(rng.normal(size=(2500, 2)))\n"
                  "out = model.logpdf_many(1.5 * rng.normal(size=(3000, 2)))\n"
                  "sys.stdout.buffer.write(out.tobytes())\n")
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       OMP_NUM_THREADS=threads)
            proc = subprocess.run([sys.executable, "-c", script], env=env,
                                  capture_output=True, check=True)
            outputs.append(proc.stdout)
        assert len(outputs[0]) == 3000 * 8 and outputs[0] == outputs[1]

    def test_exact_hits_match_direct_formula(self, rng):
        pts = rng.normal(size=(60, 3)) * [1.0, 10.0, 0.1] + 5.0
        model = kde_fit(pts)
        z = (pts[:, None, :] - pts[None, :, :]) / model.bandwidths
        want = (logsumexp(-0.5 * np.sum(z * z, axis=2), axis=1)
                - np.sum(np.log(model.bandwidths * np.sqrt(2.0 * np.pi)))
                - np.log(len(pts)))
        assert np.max(np.abs(model.logpdf_many(pts) - want)) <= 1e-12

    def test_lone_point_gives_normalizing_constant(self):
        bw = np.array([0.5, 2.0])
        model = DensityModel(training_points=np.array([[3.5, -2.0]]),
                             bandwidths=bw)
        const = -np.sum(np.log(bw * np.sqrt(2.0 * np.pi)))
        assert model.logpdf_many([[3.5, -2.0]])[0] == pytest.approx(const,
                                                                   abs=1e-12)

    def test_memory_bounded_by_chunk(self, rng):
        """One call holds a fixed budget of kernel values, not a
        (queries, points, d) tensor: 4,000 x 5,000 in d = 2 peaks well
        under 8 MB."""
        model = kde_fit(rng.normal(size=(5000, 2)))
        queries = rng.normal(size=(4000, 2))
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            model.logpdf_many(queries)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_mixture_symmetry(self):
        model = kde_fit(np.array([[-2.0], [2.0]]))
        xs = np.array([[0.3], [1.7], [5.0]])
        for pos, neg in zip(model.logpdf_many(xs), model.logpdf_many(-xs)):
            assert pos == pytest.approx(neg)

    def test_dimension_mismatch(self):
        model = kde_fit(np.zeros((3, 2)) + np.arange(3)[:, None])
        with pytest.raises(DataError):
            model.logpdf_many(np.array([1.0]))

    def test_never_nan_or_neg_inf(self, rng):
        model = kde_fit(rng.normal(size=(20, 2)))
        queries = np.concatenate([rng.normal(size=(20, 2)),
                                  rng.normal(size=(20, 2)) * 1e8])
        out = model.logpdf_many(queries)
        assert np.all(np.isfinite(out))


class TestLogOdds:
    def test_ratio_two(self):
        p1 = UniformBoxDensity(low=[0.0], high=[5.0])    # pdf 0.2
        p0 = UniformBoxDensity(low=[0.0], high=[10.0])   # pdf 0.1
        (sign,), (cost,) = log_odds(p1, p0, [1.0])
        assert sign == 1
        assert cost == pytest.approx(math.log(2.0))

    def test_tie_gives_zero(self):
        p = UniformBoxDensity(low=[0.0], high=[2.0])
        (sign,), (cost,) = log_odds(p, p, [1.0])
        assert (sign, cost) == (0, 0.0)

    def test_kde_midpoint_near_zero(self):
        rng = np.random.default_rng(2)
        p1 = kde_fit(rng.normal(0.0, 1.0, size=(10000, 1)))
        p0 = kde_fit(rng.normal(2.0, 1.0, size=(10000, 1)))
        _, (cost,) = log_odds(p1, p0, [1.0])
        assert cost < 0.15

    def test_clamped_at_fifty(self):
        sharp = UniformBoxDensity(low=[0.0], high=[1e-30])
        broad = UniformBoxDensity(low=[-1.0], high=[1.0])
        (sign,), (cost,) = log_odds(sharp, broad, [1e-31])
        assert sign == 1
        assert cost == LOG_ODDS_CLAMP

    @given(st.floats(min_value=-4, max_value=4, allow_nan=False))
    @settings(max_examples=40)
    def test_antisymmetric_in_densities(self, x):
        p1 = StepDensity([-5, 0, 5], [-1.0, -2.0])
        p0 = StepDensity([-5, 0, 5], [-2.5, -0.5])
        (s_a,), (c_a,) = log_odds(p1, p0, [x])
        (s_b,), (c_b,) = log_odds(p0, p1, [x])
        assert s_a == -s_b
        assert c_a == pytest.approx(c_b)
        assert c_a >= 0
        assert (s_a == 0) == (c_a == 0.0)


class TestBuildSignedGraph:
    def _features(self, vectors):
        vectors = np.asarray(vectors, dtype=float).reshape(-1, 1)
        pairs = np.array([[0, t + 1] for t in range(len(vectors))])
        return EdgeFeatureSet(pairs=pairs, vectors=vectors)

    def test_zero_cost_edge_dropped(self):
        # StepDensity levels make x=0.5 a tie (cost 0) and x=1.5 cost 2.3
        p1 = StepDensity([0, 1, 2], [-1.0, -1.0])
        p0 = StepDensity([0, 1, 2], [-1.0, -3.3])
        g = build_signed_graph(self._features([0.5, 1.5]), p1, p0)
        assert len(g.pairs) == 1
        assert len(g.dropped) == 1
        assert g.costs[0] == pytest.approx(2.3)

    def test_infinite_threshold_drops_everything(self):
        p1 = StepDensity([0, 2], [-1.0])
        p0 = StepDensity([0, 2], [-2.0])
        g = build_signed_graph(self._features([0.5, 1.5]), p1, p0,
                               sparsify_below=math.inf)
        assert len(g.pairs) == 0
        assert len(g.dropped) == 2

    def test_partitions_the_pair_set(self, rng):
        p1 = StepDensity([-10, 0, 10], [-1.0, -2.0])
        p0 = StepDensity([-10, 0, 10], [-2.0, -1.0])
        feats = self._features(rng.normal(size=12))
        g = build_signed_graph(feats, p1, p0, sparsify_below=0.5)
        assert len(g.pairs) + len(g.dropped) == len(feats)

    def test_disjoint_supports_give_clique_union(self, rng):
        # perfectly separated densities: kept positive edges connect exactly
        # the true clusters, so the graph is a union of disconnected cliques
        p1 = UniformBoxDensity(low=[0.0], high=[1.0])
        p0 = UniformBoxDensity(low=[2.0], high=[3.0])
        spec = EdgeLevelSpec(sizes=[4, 4, 4], p1=p1, p0=p0)
        feats, truth = gen_edge_level(spec, rng)
        g = build_signed_graph(feats, p1, p0)
        for (i, j), sign in zip(g.pairs, g.signs):
            same = truth.labels[i] == truth.labels[j]
            assert (sign > 0) == same

    def test_nan_log_odds_rejected(self):
        # a NaN density must not read as a below-threshold pair and vanish
        p1 = StepDensity([0, 2], [np.nan])
        p0 = StepDensity([0, 2], [-2.0])
        with pytest.raises(DataError, match=r"\(0, 2\)"):
            build_signed_graph(self._features([3.0, 1.0]), p1, p0)

    def test_duplicate_pairs_rejected(self):
        with pytest.raises(DataError):
            EdgeFeatureSet(pairs=np.array([[0, 1], [0, 1]]),
                           vectors=np.zeros((2, 1)))


class TestGraphValidationAndTsv:
    def test_negative_cost_rejected(self):
        with pytest.raises(DataError):
            make_graph(2, [(0, 1, 1, -1.0)])

    def test_duplicate_edge_rejected(self):
        with pytest.raises(DataError):
            make_graph(2, [(0, 1, 1, 1.0), (0, 1, -1, 1.0)])

    def test_zero_sign_rejected(self):
        with pytest.raises(DataError):
            make_graph(2, [(0, 1, 0, 1.0)])

    def test_tsv_roundtrip(self, tmp_path, rng):
        g = make_graph(5, [(0, 1, 1, 1.25), (1, 2, -1, 0.5), (3, 4, 1, 2.0)])
        path = tmp_path / "g.tsv"
        write_graph_tsv(g, path)
        lines = path.read_text().splitlines()
        assert lines[0].split("\t")[:3] == ["0", "1", "+1"]
        back = read_graph_tsv(path, n=5)
        assert back.n == 5
        assert np.array_equal(back.pairs, g.pairs)
        assert np.array_equal(back.signs, g.signs)
        assert np.allclose(back.costs, g.costs)

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_tsv_round_trip_property(self, data):
        n = data.draw(st.integers(0, 7))
        every = all_pairs(n)
        keep = data.draw(st.lists(st.booleans(), min_size=len(every),
                                  max_size=len(every)))
        pairs = every[np.array(keep, dtype=bool)]
        m = len(pairs)
        signs = data.draw(st.lists(st.sampled_from([-1, 1]), min_size=m,
                                   max_size=m))
        costs = data.draw(st.lists(st.floats(0.0, 1e300), min_size=m,
                                   max_size=m))
        # some of the other pairs are dropped, the rest absent from the file
        rest = every[~np.array(keep, dtype=bool)]
        drop = data.draw(st.lists(st.booleans(), min_size=len(rest),
                                  max_size=len(rest)))
        dropped = rest[np.array(drop, dtype=bool)].reshape(-1, 2)
        g = SignedWeightedGraph(n=n, pairs=pairs, signs=signs, costs=costs,
                                dropped=dropped)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "g.tsv"
            write_graph_tsv(g, path)
            back = read_graph_tsv(path, n=n)
            inferred = read_graph_tsv(path)
        assert back.n == n
        assert np.array_equal(back.pairs, g.pairs)
        assert np.array_equal(back.signs, g.signs)
        assert np.array_equal(back.costs, g.costs)
        assert np.array_equal(back.dropped, g.dropped)
        listed = np.vstack([pairs, dropped])
        assert inferred.n == (int(listed.max()) + 1 if len(listed) else 0)

    def test_tsv_malformed_rejected(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("0\t1\tx\t1.0\n")
        with pytest.raises(DataError):
            read_graph_tsv(path)
        # sign 0 marks a dropped pair, which carries no cost
        path.write_text("0\t1\t+1\t1.5\n\n1\t2\t0\t0.25\n")
        with pytest.raises(DataError, match=":3: dropped pair"):
            read_graph_tsv(path)
