"""Workload definitions, input generation from the workload seed, and the
correctness checks applied to every pipeline report.

Each workload is a stream of `RunConfig`s whose seeds are drawn from the
workload seed, so the same seed gives the same instances. A fixed reference
panel (the first instances of DEFAULT_SEED) is solved in every run as well:
its labels and LP bounds are compared with `reference.json`, and the quality
metrics are scored on it, so they repeat exactly on one commit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from edgeclust import analysis, datagen, density, densities
from edgeclust.pipeline import RunConfig, run_pipeline

DEFAULT_SEED = 1
BOUND_TOL = 1e-6        # certificate sandwich, absolute on the scale of the bound
IDENTITY_TOL = 1e-8     # likelihood identity, relative
REFERENCE_TOL = 1e-6    # LP objective against the stored reference, relative
THEOREM2_SIGMAS = 3.0

EDGE_SPEC = {
    "sizes": [15, 15, 15],
    "p1": {"kind": "gaussian", "mean": [0.0, 0.0], "sigma": [1.0, 1.0]},
    "p0": {"kind": "gaussian", "mean": [2.0, 2.0], "sigma": [1.0, 1.0]},
}
THEOREM2_GRAPHS = 100
THEOREM2_SAMPLES = 20000


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict                 # RunConfig fields other than the seed
    panel: int                   # reference-panel instances per run
    theorem2: bool = False       # run the Theorem-2 agreement check

    def run_config(self, seed: int) -> RunConfig:
        return RunConfig(seed=seed, **self.config)

    @property
    def n(self) -> int:
        if self.config["dataset"] == "edge_level":
            return sum(self.config["edge_spec"]["sizes"])
        return self.config["holdout"]

    @property
    def pairs_per_instance(self) -> int:
        return self.n * (self.n - 1) // 2


WORKLOADS = {
    # The README's crossbones config with the exact LP, scaled down from the
    # n=100 baseline. LP time per instance has a heavy tail across seeds
    # (coefficient of variation 0.6-0.9 from holdout 55 up), so a 30 s run
    # needs ~100 small instances for its totals to repeat between seeds.
    # 500 training pairs keep HiGHS, not the KDE, the largest layer.
    "crossbones_lp": Workload(
        name="crossbones_lp",
        config=dict(dataset="crossbones", algo="lp", holdout=45, pairs=500,
                    noise=0.03),
        panel=6),
    # Same data source, KwikCluster instead of the LP: the KDE evaluations
    # in the graph and likelihood stages are ~99% of the time.
    "crossbones_pivot": Workload(
        name="crossbones_pivot",
        config=dict(dataset="crossbones", algo="pivot", holdout=80,
                    noise=0.03),
        panel=2),
    # Many small sparse LPs from the parametric edge-level generator, where
    # per-solve Python work in lp_relax weighs more than HiGHS.
    "edge_level_batch": Workload(
        name="edge_level_batch",
        config=dict(dataset="edge_level", algo="lp", sparsify=0.5,
                    edge_spec=EDGE_SPEC),
        panel=10, theorem2=True),
}


def instance_seeds(seed: int):
    """Endless, deterministic stream of RunConfig seeds for one workload seed."""
    rng = np.random.default_rng(seed)
    while True:
        yield int(rng.integers(1, 2**31 - 1))


def panel_seeds(w: Workload):
    stream = instance_seeds(DEFAULT_SEED)
    return [next(stream) for _ in range(w.panel)]


def warm_up():
    """Touch every code path once (KDE, LP, pivot, edge-level generator) on
    tiny inputs, so lazy imports and first-call costs stay out of the timed
    loop."""
    run_pipeline(RunConfig(dataset="crossbones", seed=0, algo="lp", holdout=8, pairs=200))
    run_pipeline(RunConfig(dataset="crossbones", seed=0, algo="pivot", holdout=8, pairs=200))
    spec = dict(EDGE_SPEC, sizes=[3, 3])
    run_pipeline(RunConfig(dataset="edge_level", seed=0, algo="lp", sparsify=0.5, edge_spec=spec))


def check_report(rep, n: int) -> list:
    """Invariants every report must satisfy; returns failure messages."""
    fails = []
    labels = rep.labels
    if len(labels) != n or min(labels) < 1 or len(set(labels)) != rep.k_predicted:
        fails.append(f"labels do not cover the {n} nodes as 1..k")
    lk = rep.likelihood
    lhs, rhs = lk["log_likelihood_theta"], lk["log_likelihood_g0"] - lk["disagreement_term"]
    if abs(lhs - rhs) > IDENTITY_TOL * max(1.0, abs(lk["log_likelihood_g0"])):
        fails.append(f"likelihood identity off by {lhs - rhs:.3e}")
    cert = rep.certificate
    if cert is not None:
        tol = BOUND_TOL * max(1.0, abs(cert["bound_rhs"]))
        if not (cert["lp_lower_bound"] - tol <= cert["rounded_cost"] <= cert["bound_rhs"] + tol):
            fails.append("certificate sandwich lp_lower_bound <= rounded_cost "
                         f"<= bound_rhs fails: {cert}")
    return fails


def check_reference(rep, ref: dict) -> list:
    """Exact-LP results must match the stored reference: the same labels and
    the LP objective within REFERENCE_TOL. KwikCluster is a randomized
    heuristic with no certificate, so its panel is scored but not compared."""
    want = ref["lp_lower_bound"]
    if want is None:
        return []
    fails = []
    if rep.labels != ref["labels"]:
        fails.append("labels differ from the stored reference")
    got = rep.certificate["lp_lower_bound"]
    if abs(got - want) > REFERENCE_TOL * max(1.0, abs(want)):
        fails.append(f"lp_lower_bound {got!r} differs from reference {want!r}")
    return fails


def reference_entry(seed: int, rep) -> dict:
    cert = rep.certificate
    return {"seed": seed, "labels": rep.labels,
            "lp_lower_bound": None if cert is None else cert["lp_lower_bound"]}


def theorem2_check(seed: int) -> dict:
    """Mean empirical disagreement of generated log-odds graphs against the
    Monte Carlo expected disagreement (Theorem 2), within THEOREM2_SIGMAS
    combined standard errors."""
    rng = np.random.default_rng([seed, 2])
    p1 = densities.parse_density(EDGE_SPEC["p1"])
    p0 = densities.parse_density(EDGE_SPEC["p0"])
    spec = datagen.EdgeLevelSpec(sizes=EDGE_SPEC["sizes"], p1=p1, p0=p0)
    vals = []
    for _ in range(THEOREM2_GRAPHS):
        feats, truth = datagen.gen_edge_level(spec, rng)
        vals.append(analysis.empirical_dis(density.build_signed_graph(feats, p1, p0), truth))
    vals = np.asarray(vals)
    n1 = sum(s * (s - 1) // 2 for s in spec.sizes)
    n0 = spec.n * (spec.n - 1) // 2 - n1
    rep = analysis.expected_dis(p1, p0, n1=n1, n0=n0, samples=THEOREM2_SAMPLES, rng=rng)
    sem = float(vals.std(ddof=1) / math.sqrt(len(vals)))
    combined = math.hypot(sem, rep.std_error)
    diff = float(vals.mean() - rep.estimate)
    return {"mean_empirical": float(vals.mean()), "expected": rep.estimate,
            "combined_se": combined, "z": diff / combined,
            "ok": abs(diff) <= THEOREM2_SIGMAS * combined}
