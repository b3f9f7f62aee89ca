"""End-to-end pipeline, report determinism, plotting, the CLI surface, and
file round trips."""
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import EDGE_SPEC
from edgeclust import corrclust, pipeline
from edgeclust.analysis import LikelihoodReport
from edgeclust.cli import _read_labels, cli, main
from edgeclust.core import SampleSet, report_json, validate_partition, write_lines
from edgeclust.density import DensityModel, read_graph_tsv
from edgeclust.errors import ConfigError, DataError
from edgeclust.pipeline import (ResultsReport, RunConfig, fit_model, load_model,
                                run_pipeline, save_model)
from edgeclust.plotting import render_svg

DISJOINT_SPEC = {
    "sizes": [4, 4],
    "p1": {"kind": "uniform", "low": [0.0], "high": [1.0]},
    "p0": {"kind": "uniform", "low": [2.0], "high": [3.0]},
}


# the edgeclust entry point in a process limited to 2 GB of address space
MAIN_IN_2GB = ("import resource, sys\n"
               "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))\n"
               "from edgeclust.cli import main\n"
               "sys.argv = ['edgeclust', *sys.argv[1:]]\n"
               "main()\n")


def exit_code(monkeypatch, args):
    """Exit status of the edgeclust entry point run in-process."""
    monkeypatch.setattr(sys, "argv", ["edgeclust", *args])
    try:
        main()
    except SystemExit as exc:
        return exc.code
    return 0


def small_cfg(**kwargs):
    base = dict(dataset="blobs", seed=1, holdout=24, train_pool=60,
                pairs=400, noise=0.4, k=2)
    base.update(kwargs)
    return RunConfig(**base)


class TestRunConfig:
    def test_invalid_algo(self):
        with pytest.raises(ConfigError):
            small_cfg(algo="sdp")

    def test_invalid_pca(self):
        with pytest.raises(ConfigError):
            small_cfg(pca=1.5)

    def test_invalid_similarity(self):
        with pytest.raises(ConfigError):
            small_cfg(similarity="cosine")

    def test_negative_seed(self):
        with pytest.raises(ConfigError, match="seed"):
            small_cfg(seed=-1)

    def test_alias_canonicalized(self):
        assert small_cfg(similarity="euclid").similarity == "euclidean"

    def test_edge_spec_given_exactly_for_edge_level(self):
        with pytest.raises(ConfigError):
            small_cfg(edge_spec=DISJOINT_SPEC)
        for spec in (None, [1, 2], {"sizes": [4, 4], "p1": DISJOINT_SPEC["p1"]}):
            with pytest.raises(ConfigError):
                RunConfig(dataset="edge_level", seed=1, edge_spec=spec)


class TestReportJson:
    @pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                       float("-inf")])
    def test_non_finite_value_rejected(self, value):
        rep = ResultsReport(config={"seed": 1}, labels=[1, 2], k_predicted=2,
                            scores={"structured": {"nmi": 1.0}},
                            certificate=None,
                            likelihood={"disagreement_term": value}, timing={})
        with pytest.raises(DataError):
            rep.to_json(include_timing=False)
        with pytest.raises(DataError):
            report_json({"nested": [[1.0, value]]})

    def test_pipeline_rejects_non_finite_report(self, monkeypatch):
        # a likelihood term that overflows reaches the report, which
        # run_pipeline checks before returning it
        monkeypatch.setattr(pipeline, "log_likelihood",
                            lambda *args: LikelihoodReport(
                                log_likelihood_theta=-1.0,
                                log_likelihood_g0=-1.0,
                                disagreement_term=float("inf")))
        with pytest.raises(DataError) as err:
            run_pipeline(RunConfig(dataset="edge_level", seed=4,
                                   edge_spec=DISJOINT_SPEC))
        assert str(err.value) == "report contains a non-finite numeric value"
        assert exit_code(monkeypatch, [
            "pipeline", "--kind", "blobs", "--seed", "1", "--holdout", "10",
            "--train-pool", "20", "--pairs", "100"]) == 3


class TestRunPipeline:
    def test_blobs_end_to_end(self):
        rep = run_pipeline(small_cfg(baselines=True))
        assert rep.k_predicted == 2
        assert rep.scores["structured"]["nmi"] == pytest.approx(1.0)
        assert rep.scores["kmeans"]["nmi"] == pytest.approx(1.0)
        assert rep.scores["spectral"]["nmi"] == pytest.approx(1.0)
        assert rep.certificate["lp_lower_bound"] <= rep.certificate["rounded_cost"] + 1e-6
        assert rep.likelihood["disagreement_term"] >= 0.0

    def test_report_byte_identical_across_runs(self):
        a = run_pipeline(small_cfg()).to_json(include_timing=False)
        b = run_pipeline(small_cfg()).to_json(include_timing=False)
        assert a == b

    def test_different_seeds_differ(self):
        a = run_pipeline(small_cfg(seed=1)).to_dict(include_timing=False)
        b = run_pipeline(small_cfg(seed=2)).to_dict(include_timing=False)
        assert a != b

    def test_edge_level_exact_recovery(self):
        cfg = RunConfig(dataset="edge_level", seed=3, edge_spec=DISJOINT_SPEC)
        rep = run_pipeline(cfg)
        assert rep.scores["structured"]["nmi"] == 1.0
        assert rep.k_predicted == 2

    def test_edge_level_mixture_p1(self):
        p1 = {"kind": "mixture", "weights": [1.0, 3.0],
              "components": [{"kind": "uniform", "low": [0.0], "high": [0.5]},
                             {"kind": "uniform", "low": [0.5], "high": [1.0]}]}
        cfg = RunConfig(dataset="edge_level", seed=3,
                        edge_spec=dict(DISJOINT_SPEC, p1=p1))
        rep = run_pipeline(cfg)
        assert rep.scores["structured"]["nmi"] == 1.0
        assert rep.k_predicted == 2

    def test_oracle_size_cap(self):
        cfg = small_cfg(algo="oracle")  # 24 hold-out nodes > 12
        with pytest.raises(ConfigError):
            run_pipeline(cfg)

    def test_pivot_algo_runs(self):
        rep = run_pipeline(small_cfg(algo="pivot"))
        assert rep.certificate is None
        assert rep.scores["structured"]["nmi"] == pytest.approx(1.0)

    @pytest.mark.parametrize("cfg", [
        RunConfig(dataset="crossbones", seed=1, algo="lp", holdout=20,
                  pairs=300),
        RunConfig(dataset="crossbones", seed=1, algo="pivot", holdout=40,
                  pairs=300),
        RunConfig(dataset="edge_level", seed=1, sparsify=0.5,
                  edge_spec=EDGE_SPEC),
    ], ids=["crossbones_lp", "crossbones_pivot", "edge_level"])
    def test_kde_evaluated_once_per_density(self, monkeypatch, cfg):
        # the likelihood stage reuses the graph stage's log-densities
        calls = []
        logpdf_many = DensityModel.logpdf_many
        monkeypatch.setattr(DensityModel, "logpdf_many",
                            lambda m, x: calls.append(m) or logpdf_many(m, x))
        run_pipeline(cfg)
        assert len(calls) == 2

    @pytest.mark.parametrize("sparsify", [6.0, 10.0])
    @pytest.mark.parametrize("seed", range(1, 6))
    def test_lp_bound_never_negative_nor_above_zero_cost(self, seed,
                                                         sparsify):
        # at these thresholds the kept edges agree with one partition, so
        # the LP stops at the sign solution and the cost is 0
        cert = run_pipeline(RunConfig(dataset="edge_level", seed=seed,
                                      sparsify=sparsify,
                                      edge_spec=EDGE_SPEC)).certificate
        assert 0.0 <= cert["lp_lower_bound"] <= cert["rounded_cost"]

    @pytest.mark.slow
    def test_crossbones_default_learns_k(self):
        # the cluster count is never supplied, yet the default config
        # recovers k = 2 on every seed
        for seed in range(1, 11):
            rep = run_pipeline(RunConfig(dataset="crossbones", seed=seed))
            assert rep.k_predicted == 2

    def test_stage_tagged_errors(self, tmp_path):
        path = tmp_path / "missing.csv"
        cfg = small_cfg(dataset=str(path))
        with pytest.raises((DataError, OSError)):
            run_pipeline(cfg)

    def test_report_numeric_finiteness_and_config_echo(self):
        rep = run_pipeline(small_cfg())
        d = rep.to_dict()
        assert d["config"]["seed"] == 1
        assert d["config"]["similarity"] == "abs_diff"

        def walk(obj):
            if isinstance(obj, dict):
                for v in obj.values():
                    walk(v)
            elif isinstance(obj, list):
                for v in obj:
                    walk(v)
            elif isinstance(obj, float):
                assert np.isfinite(obj)

        walk(d)


class TestRenderSvg:
    def test_circle_count_and_fills(self, tmp_path):
        s = SampleSet(features=np.array([[0.0, 0.0], [1.0, 0.0],
                                         [0.0, 1.0], [1.0, 1.0]]))
        p = validate_partition([1, 1, 2, 2])
        out = tmp_path / "plot.svg"
        render_svg(s, p, out)
        text = out.read_text()
        assert text.count("<circle") == 4
        fills = {part.split('"')[0] for part in text.split('fill="')[2:]}
        assert len(fills) == 2

    def test_high_dimensional_projected(self, tmp_path, rng):
        s = SampleSet(features=rng.normal(size=(10, 3)))
        p = validate_partition(np.ones(10, dtype=int))
        out = tmp_path / "plot.svg"
        render_svg(s, p, out)
        assert out.read_text().count("<circle") == 10

    def test_mismatched_partition_rejected(self, tmp_path):
        s = SampleSet(features=np.zeros((3, 2)))
        with pytest.raises(DataError):
            render_svg(s, validate_partition([1, 2]), tmp_path / "x.svg")


class TestCli:
    def _gen(self, runner, tmp_path, n=40, kind="blobs", noise=0.4):
        data = tmp_path / "data.csv"
        res = runner.invoke(cli, ["gen", "--kind", kind, "--n", str(n),
                                  "--k", "2", "--noise", str(noise),
                                  "--seed", "1", "--out", str(data)])
        assert res.exit_code == 0, res.output
        return data

    def test_stagewise_workflow(self, tmp_path):
        runner = CliRunner()
        data = self._gen(runner, tmp_path)
        pairs = tmp_path / "pairs.csv"
        model = tmp_path / "model.npz"
        graph = tmp_path / "graph.tsv"
        labels = tmp_path / "labels.txt"
        cert = tmp_path / "cert.json"
        report = tmp_path / "report.json"
        steps = [
            ["pairs", "--data", str(data), "--pairs", "300", "--seed", "2",
             "--out", str(pairs)],
            ["fit", "--data", str(data), "--pairs-file", str(pairs),
             "--out", str(model)],
            ["graph", "--data", str(data), "--model", str(model),
             "--out", str(graph)],
            ["cluster", "--graph", str(graph), "--out", str(labels),
             "--certificate", str(cert)],
            ["eval", "--pred", str(labels), "--truth", str(data),
             "--out", str(report)],
        ]
        for step in steps:
            res = runner.invoke(cli, step)
            assert res.exit_code == 0, f"{step}: {res.output}"
        scored = json.loads(report.read_text())
        assert scored["nmi"] == pytest.approx(1.0)
        cert_d = json.loads(cert.read_text())
        assert cert_d["lp_lower_bound"] <= cert_d["rounded_cost"] + 1e-6

    def test_certify_command(self, tmp_path):
        runner = CliRunner()
        graph = tmp_path / "g.tsv"
        graph.write_text("0\t1\t+1\t1\n0\t2\t+1\t1\n1\t2\t-1\t1\n")
        labels = tmp_path / "labels.txt"
        labels.write_text("1\n1\n1\n")
        res = runner.invoke(cli, ["certify", "--graph", str(graph),
                                  "--labels", str(labels)])
        assert res.exit_code == 0, res.output
        out = json.loads(res.output)
        assert out["rounded_cost"] == pytest.approx(1.0)
        assert out["lp_lower_bound"] == pytest.approx(1.0, abs=1e-6)

    def test_certify_empty_graph_matches_cluster(self, tmp_path):
        # three nodes, every pair dropped: no kept edge
        runner = CliRunner()
        graph = tmp_path / "empty.tsv"
        graph.write_text("0\t1\t0\t0\n0\t2\t0\t0\n1\t2\t0\t0\n")
        labels = tmp_path / "labels.txt"
        cert = tmp_path / "cert.json"
        res = runner.invoke(cli, ["cluster", "--graph", str(graph),
                                  "--out", str(labels),
                                  "--certificate", str(cert)])
        assert res.exit_code == 0, res.output
        assert labels.read_text() == "1\n2\n3\n"
        res = runner.invoke(cli, ["certify", "--graph", str(graph),
                                  "--labels", str(labels)])
        assert res.exit_code == 0, res.output
        out = json.loads(res.output)
        assert out == json.loads(cert.read_text())
        assert out["lp_lower_bound"] == out["rounded_cost"] == 0.0

    def test_huge_node_count_is_data_error(self, tmp_path):
        """A node count whose n x n matrix cannot be allocated exits 3 with
        a message naming n, in a process limited to 2 GB of address space:
        a graph file naming node 10^9, and certify on a file whose sign-0
        row names node 19,999 (a 3.2 GB metric over 20,000 nodes)."""
        far = tmp_path / "far.tsv"
        far.write_text("0\t1000000000\t+1\t1\n0\t1\t-1\t1\n")
        wide = tmp_path / "wide.tsv"
        wide.write_text("0\t1\t+1\t1\n0\t19999\t0\t0\n")
        labels = tmp_path / "labels.txt"
        labels.write_text("1\n" * 20000)
        out = str(tmp_path / "out.txt")
        runs = [(["cluster", "--graph", str(far), "--algo", algo, "--out", out],
                 "1000000001") for algo in ("pivot", "lp")]
        runs += [(["certify", "--graph", str(wide), "--labels", str(labels)],
                  "20000")]
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
        for args, n in runs:
            proc = subprocess.run([sys.executable, "-c", MAIN_IN_2GB, *args],
                                  env=env, capture_output=True, text=True)
            assert proc.returncode == 3, (args, proc.stderr)
            assert f"the graph has {n} nodes" in proc.stderr, args
            assert "Traceback" not in proc.stderr, args

    def test_out_of_memory_is_data_error(self):
        """A run whose arrays do not fit exits 3 without a traceback, in a
        process limited to 2 GB of address space: 100,000 hold-out samples
        make ~5e9 pairs."""
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
        proc = subprocess.run(
            [sys.executable, "-c", MAIN_IN_2GB, "pipeline", "--kind", "blobs",
             "--holdout", "100000", "--seed", "1"],
            env=env, capture_output=True, text=True)
        assert proc.returncode == 3, proc.stderr
        assert proc.stderr.startswith("data error: ")
        assert "Traceback" not in proc.stderr

    def test_graph_file_keeps_node_count(self, tmp_path):
        # at sparsify 2 no kept edge reaches nodes 10 and 11, so the kept
        # edges alone say n = 10; the dropped pairs in graph.tsv still give
        # cluster the node count without --n
        runner = CliRunner()
        d = str(tmp_path)
        for args in (["gen", "--kind", "crossbones", "--n", "12", "--seed", "3",
                      "--out", f"{d}/data.csv"],
                     ["pairs", "--data", f"{d}/data.csv", "--pairs", "60",
                      "--seed", "2", "--out", f"{d}/pairs.csv"],
                     ["fit", "--data", f"{d}/data.csv", "--pairs-file",
                      f"{d}/pairs.csv", "--out", f"{d}/model.npz"],
                     ["graph", "--data", f"{d}/data.csv", "--model",
                      f"{d}/model.npz", "--sparsify", "2",
                      "--out", f"{d}/graph.tsv"],
                     ["cluster", "--graph", f"{d}/graph.tsv",
                      "--out", f"{d}/labels.txt"],
                     ["eval", "--pred", f"{d}/labels.txt",
                      "--truth", f"{d}/data.csv"]):
            res = runner.invoke(cli, args)
            assert res.exit_code == 0, f"{args[0]}: {res.output}"
        g = read_graph_tsv(tmp_path / "graph.tsv")
        assert g.n == 12
        assert g.pairs.max() == 9
        assert len(_read_labels(tmp_path / "labels.txt")) == 12

    @pytest.mark.parametrize("algo", ["lp", "pivot", "oracle"])
    def test_cluster_certificate_matches_certify(self, tmp_path, algo):
        runner = CliRunner()
        graph = tmp_path / "g.tsv"
        graph.write_text("0\t1\t+1\t1\n0\t2\t+1\t2\n1\t2\t-1\t0.5\n"
                         "2\t3\t+1\t1\n1\t3\t-1\t1.5\n")
        labels = tmp_path / "labels.txt"
        cert = tmp_path / "cert.json"
        res = runner.invoke(cli, ["cluster", "--graph", str(graph), "--algo",
                                  algo, "--seed", "3", "--out", str(labels),
                                  "--certificate", str(cert)])
        assert res.exit_code == 0, res.output
        certified = tmp_path / "certify.json"
        res = runner.invoke(cli, ["certify", "--graph", str(graph),
                                  "--labels", str(labels),
                                  "--out", str(certified)])
        assert res.exit_code == 0, res.output
        assert cert.read_bytes() == certified.read_bytes()

    @pytest.mark.parametrize("row", ["-1,3,0", "3,3,1"])
    def test_fit_rejects_bad_pair_indices(self, tmp_path, monkeypatch, row):
        runner = CliRunner()
        data = self._gen(runner, tmp_path)
        pairs = tmp_path / "pairs.csv"
        res = runner.invoke(cli, ["pairs", "--data", str(data), "--pairs",
                                  "100", "--seed", "2", "--out", str(pairs)])
        assert res.exit_code == 0, res.output
        with open(pairs, "a", encoding="utf-8") as fh:
            fh.write(row + "\n")
        assert exit_code(monkeypatch, [
            "fit", "--data", str(data), "--pairs-file", str(pairs),
            "--out", str(tmp_path / "model.npz")]) == 3

    def test_pairs_rejects_degenerate_labeling(self, tmp_path, monkeypatch):
        data = tmp_path / "one.csv"
        data.write_text("0.0,0.0,1\n1.0,0.0,1\n0.0,1.0,1\n")
        assert exit_code(monkeypatch, [
            "pairs", "--data", str(data), "--seed", "1",
            "--out", str(tmp_path / "pairs.csv")]) == 3

    def test_baseline_command(self, tmp_path):
        runner = CliRunner()
        data = self._gen(runner, tmp_path)
        out = tmp_path / "km.txt"
        res = runner.invoke(cli, ["baseline", "--data", str(data), "--method",
                                  "kmeans", "--k", "2", "--seed", "3",
                                  "--out", str(out)])
        assert res.exit_code == 0, res.output
        assert len(out.read_text().splitlines()) == 40

    def test_plot_command(self, tmp_path):
        runner = CliRunner()
        data = self._gen(runner, tmp_path, n=20)
        out = tmp_path / "plot.svg"
        res = runner.invoke(cli, ["plot", "--data", str(data), "--out", str(out)])
        assert res.exit_code == 0, res.output
        assert out.read_text().count("<circle") == 20

    def test_plot_with_labels_file_drops_label_column(self, tmp_path):
        # the CSV's own labels given as a file draw the same plot, so the
        # label column is not plotted as a third feature; unlabeled data
        # takes --no-labels and a labels file
        runner = CliRunner()
        data = tmp_path / "data.csv"
        res = runner.invoke(cli, ["gen", "--kind", "crossbones", "--n", "20",
                                  "--seed", "1", "--out", str(data)])
        assert res.exit_code == 0, res.output
        rows = [line.rsplit(",", 1) for line in data.read_text().splitlines()]
        labels, features = tmp_path / "labels.txt", tmp_path / "features.csv"
        write_lines(labels, (label for _, label in rows))
        write_lines(features, (feats for feats, _ in rows))
        svgs = []
        for args in (["--data", str(data)],
                     ["--data", str(data), "--labels", str(labels)],
                     ["--data", str(features), "--no-labels",
                      "--labels", str(labels)]):
            out = tmp_path / f"plot{len(svgs)}.svg"
            res = runner.invoke(cli, ["plot", *args, "--out", str(out)])
            assert res.exit_code == 0, res.output
            svgs.append(out.read_text())
        assert svgs[1] == svgs[0] and svgs[2] == svgs[0]
        res = runner.invoke(cli, ["plot", "--data", str(features), "--no-labels",
                                  "--out", str(tmp_path / "none.svg")],
                            standalone_mode=False)
        assert isinstance(res.exception, ConfigError)

    def test_pipeline_command_with_edge_spec(self, tmp_path):
        runner = CliRunner()
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(DISJOINT_SPEC))
        out = tmp_path / "report.json"
        res = runner.invoke(cli, ["pipeline", "--edge-spec", str(spec),
                                  "--seed", "4", "--out", str(out)])
        assert res.exit_code == 0, res.output
        report = json.loads(out.read_text())
        assert report["k_predicted"] == 2
        assert report["scores"]["structured"]["nmi"] == 1.0

    def test_pipeline_requires_one_source(self):
        runner = CliRunner()
        res = runner.invoke(cli, ["pipeline", "--seed", "1"],
                            standalone_mode=False)
        assert isinstance(res.exception, ConfigError)

    def test_exit_codes(self, tmp_path, monkeypatch):
        data = tmp_path / "nope.csv"
        # config error -> 2 (bad similarity choice is caught by click)
        proc = subprocess.run(
            [sys.executable, "-m", "edgeclust.cli", "pipeline", "--seed", "1"],
            capture_output=True, text=True)
        assert proc.returncode == 2
        bad = tmp_path / "bad.csv"
        bad.write_text("1.0,oops\n")
        proc = subprocess.run(
            [sys.executable, "-m", "edgeclust.cli", "pipeline", "--seed", "1",
             "--data", str(bad), "--holdout", "2", "--pairs", "10"],
            capture_output=True, text=True)
        assert proc.returncode == 3
        # a negative sparsify threshold is a config error in both commands
        # that take it
        runner = CliRunner()
        data = self._gen(runner, tmp_path)
        pairs = tmp_path / "pairs.csv"
        model = tmp_path / "model.npz"
        for step in (["pairs", "--data", str(data), "--pairs", "200",
                      "--seed", "2", "--out", str(pairs)],
                     ["fit", "--data", str(data), "--pairs-file", str(pairs),
                      "--out", str(model)]):
            res = runner.invoke(cli, step)
            assert res.exit_code == 0, res.output
        # and so are a NaN and an infinite one, which would otherwise drop
        # every pair
        for threshold in ("-1", "nan", "inf"):
            assert exit_code(monkeypatch, [
                "graph", "--data", str(data), "--model", str(model),
                "--sparsify", threshold, "--out", str(tmp_path / "g.tsv")]) == 2
            assert exit_code(monkeypatch, [
                "pipeline", "--kind", "blobs", "--seed", "1", "--holdout", "10",
                "--train-pool", "20", "--pairs", "100",
                "--sparsify", threshold]) == 2
        # a NaN or infinite noise is a config error, not non-finite
        # features, and so is a finite one whose draws overflow (100 points
        # make an overflowing draw all but certain)
        for noise in ("nan", "inf", "1e308"):
            assert exit_code(monkeypatch, [
                "gen", "--kind", "blobs", "--n", "100", "--seed", "1",
                "--noise", noise, "--out", str(tmp_path / "noisy.csv")]) == 2
            assert exit_code(monkeypatch, [
                "pipeline", "--kind", "blobs", "--seed", "1", "--holdout", "10",
                "--train-pool", "20", "--pairs", "100", "--noise", noise]) == 2
        # a noise whose points are finite but whose spread overflows is a
        # data error at the fit stage, with no overflow warning on the way
        assert exit_code(monkeypatch, [
            "pipeline", "--kind", "blobs", "--seed", "1", "--holdout", "10",
            "--train-pool", "20", "--pairs", "100", "--noise", "1e200"]) == 3
        # a training pool that cannot hold a pair of each kind (below 3;
        # 0 only means "every row" for a CSV) and a knn below 1 are config
        # errors rather than failures inside the data or score stage
        for pool in ("-5", "0", "1", "2"):
            assert exit_code(monkeypatch, [
                "pipeline", "--kind", "crossbones", "--seed", "1",
                "--holdout", "10", "--train-pool", pool]) == 2
        for pool in ("1", "2"):
            assert exit_code(monkeypatch, [
                "pipeline", "--data", str(data), "--seed", "1",
                "--holdout", "10", "--train-pool", pool]) == 2
        assert exit_code(monkeypatch, [
            "pipeline", "--kind", "blobs", "--seed", "1", "--holdout", "10",
            "--train-pool", "20", "--pairs", "100", "--knn", "0"]) == 2
        # malformed edge specs are config errors, a NaN sigma among them
        # (json reads NaN) rather than a failure inside the data stage
        spec = tmp_path / "spec.json"
        gauss_no_sigma = {"kind": "gaussian", "mean": [0.0]}
        nan_sigma = {"sizes": [4, 4],
                     "p1": {"kind": "gaussian", "mean": [0.0, 0.0],
                            "sigma": [float("nan"), 1.0]},
                     "p0": {"kind": "gaussian", "mean": [2.0, 2.0],
                            "sigma": [1.0, 1.0]}}
        # each density vector is 1-D and nonempty
        not_vectors = [{"kind": "gaussian", "mean": [], "sigma": []},
                       {"kind": "gaussian", "mean": [[0, 0], [1, 1]],
                        "sigma": [[1, 1], [1, 1]]},
                       {"kind": "gaussian", "mean": [[0, 0]], "sigma": [[1, 1]]}]
        for text in ("{", "[1, 2]",
                     json.dumps({"sizes": [4, 4], "p0": DISJOINT_SPEC["p0"]}),
                     json.dumps(dict(DISJOINT_SPEC, p1=gauss_no_sigma)),
                     json.dumps(dict(DISJOINT_SPEC, sizes="ab")), "null", "{}",
                     json.dumps(nan_sigma),
                     *(json.dumps(dict(DISJOINT_SPEC, p1=bad, p0=bad))
                       for bad in not_vectors),
                     # sizes int() would coerce to 2, 1 and 4
                     *(json.dumps(dict(DISJOINT_SPEC, sizes=[bad, 3]))
                       for bad in (2.7, True, "4"))):
            spec.write_text(text)
            assert exit_code(monkeypatch, [
                "pipeline", "--edge-spec", str(spec), "--seed", "1"]) == 2, text
        # a model file that is not an .npz, or lacks a key, is a data error
        broken = tmp_path / "broken.npz"
        np.savez(broken, similarity=np.array("abs_diff"))
        # so is a model with a non-finite bandwidth, which would otherwise
        # drop every pair and write an empty graph
        nan_bw = tmp_path / "nan_bw.npz"
        # and so are a PCA whose components do not match its mean and
        # variance, and a similarity that fit never writes
        bad_pca = tmp_path / "bad_pca.npz"
        bad_similarity = tmp_path / "bad_similarity.npz"
        with np.load(model) as fitted:
            np.savez(nan_bw, **dict(fitted, p1_bw=np.full_like(fitted["p1_bw"],
                                                               np.nan)))
            np.savez(bad_pca, **dict(fitted, pca_mean=np.zeros(2),
                                     pca_components=np.eye(3, 2),
                                     pca_variance=np.ones(2)))
            np.savez(bad_similarity, **dict(fitted, similarity=np.array("foo")))
        for bad_model in (data, broken, nan_bw, bad_pca, bad_similarity):
            assert exit_code(monkeypatch, [
                "graph", "--data", str(data), "--model", str(bad_model),
                "--out", str(tmp_path / "g.tsv")]) == 3
        # a k below 1 is a config error for both baselines, a k above n a
        # data error
        for method in ("kmeans", "spectral"):
            for k, code in (("0", 2), ("41", 3)):
                assert exit_code(monkeypatch, [
                    "baseline", "--data", str(data), "--method", method,
                    "--k", k, "--seed", "1",
                    "--out", str(tmp_path / "base.txt")]) == code, (method, k)
        # an LP that runs out of constraint-generation rounds -> 4
        graph = tmp_path / "triangle.tsv"
        graph.write_text("0\t1\t+1\t1\n0\t2\t+1\t1\n1\t2\t-1\t1\n")
        monkeypatch.setattr(corrclust, "MAX_ROUNDS", 1)
        assert exit_code(monkeypatch, [
            "cluster", "--graph", str(graph),
            "--out", str(tmp_path / "labels.txt")]) == 4

    def _bad_inputs(self, tmp_path):
        """Write data.csv, pairs.csv and the malformed inputs that
        test_more_exit_codes names into tmp_path."""
        runner = CliRunner()
        data = self._gen(runner, tmp_path)
        res = runner.invoke(cli, ["pairs", "--data", str(data), "--pairs",
                                  "100", "--seed", "2",
                                  "--out", str(tmp_path / "pairs.csv")])
        assert res.exit_code == 0, res.output
        rows = [line.split(",") for line in data.read_text().splitlines()]
        (tmp_path / "empty.csv").write_text("")
        (tmp_path / "labels_only.csv").write_text(
            "".join(f"{row[-1]}\n" for row in rows))
        (tmp_path / "one_dim.csv").write_text(
            "".join(f"{row[0]},{row[-1]}\n" for row in rows))
        (tmp_path / "five_rows.csv").write_text(
            "".join(",".join(row) + "\n" for row in rows[:5]))
        (tmp_path / "spec.json").write_text(json.dumps(DISJOINT_SPEC))
        p1 = DISJOINT_SPEC["p1"]
        for name, bad in [
                ("list_p1", [p1]), ("beta", {"kind": "beta"}),
                ("no_components", {"kind": "mixture", "components": []}),
                ("mixed_dims", {"kind": "mixture", "components": [
                    p1, {"kind": "gaussian", "mean": [0.0, 0.0],
                         "sigma": [1.0, 1.0]}]}),
                ("sigma_object", {"kind": "gaussian", "mean": [0.0],
                                  "sigma": {"x": 1.0}})]:
            (tmp_path / f"{name}.json").write_text(
                json.dumps(dict(DISJOINT_SPEC, p1=bad)))

    @pytest.mark.parametrize("args, code, message", [
        (["fit", "--data", "{d}/data.csv", "--pairs-file", "{d}/pairs.csv",
          "--pca", "abc", "--out", "{d}/model.npz"], 2, "--pca expects"),
        (["fit", "--data", "{d}/data.csv", "--pairs-file", "{d}/empty.csv",
          "--out", "{d}/model.npz"], 3, "no pairs"),
        (["baseline", "--data", "{d}/labels_only.csv", "--method", "kmeans",
          "--k", "2", "--seed", "1", "--out", "{d}/base.txt"], 3,
         "at least one feature column"),
        (["plot", "--data", "{d}/one_dim.csv", "--out", "{d}/plot.svg"], 3,
         "at least 2 feature dimensions"),
        (["pipeline", "--kind", "blobs", "--seed", "1", "--pairs", "0"], 2,
         "at least one training pair"),
        (["pipeline", "--kind", "blobs", "--seed", "1", "--holdout", "1"], 2,
         "at least two hold-out samples"),
        *((["pipeline", "--edge-spec", "{d}/" + name + ".json", "--seed", "1"],
           2, message) for name, message in [
              ("list_p1", "must be a dict with a 'kind'"),
              ("beta", "unknown density kind 'beta'"),
              ("no_components", "at least one component"),
              ("mixed_dims", "must share a dimension"),
              ("sigma_object", "gaussian density spec")]),
        (["pipeline", "--data", "{d}/five_rows.csv", "--seed", "1",
          "--holdout", "4"], 3, "dataset too small"),
        (["pipeline", "--kind", "crossbones", "--seed", "1", "--holdout", "5",
          "--train-pool", "3", "--pairs", "10"], 3,
         "[fit] need >= 2 same-cluster"),
        (["pipeline", "--edge-spec", "{d}/spec.json", "--seed", "1",
          "--baselines"], 2, "baselines need node features"),
    ])
    def test_more_exit_codes(self, tmp_path, monkeypatch, capsys, args, code,
                             message):
        self._bad_inputs(tmp_path)
        capsys.readouterr()
        assert exit_code(monkeypatch, [a.format(d=tmp_path) for a in args]) == code
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["grid", "edge_level"])
    def test_data_named_like_a_kind_is_config_error(self, tmp_path, monkeypatch,
                                                    capsys, name):
        # a CSV saved as ./grid is not the synthetic grid generator
        os.replace(self._gen(CliRunner(), tmp_path), tmp_path / name)
        monkeypatch.chdir(tmp_path)
        args = ["pipeline", "--seed", "1", "--holdout", "10", "--train-pool",
                "20", "--pairs", "100", "--algo", "pivot"]
        capsys.readouterr()
        assert exit_code(monkeypatch, [*args, "--data", name]) == 2
        assert f"write ./{name} to read the file" in capsys.readouterr().err
        assert exit_code(monkeypatch, [*args, "--data", f"./{name}",
                                       "--out", "report.json"]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["config"]["dataset"] == f"./{name}"
        assert report["k_predicted"] == 2

    def test_eval_truth_from_labels_file(self, tmp_path):
        # a truth labels file scores as the labeled CSV it came from does
        runner = CliRunner()
        data = self._gen(runner, tmp_path)
        truth, pred = tmp_path / "truth.txt", tmp_path / "pred.txt"
        truth.write_text("".join(line.rsplit(",", 1)[1] + "\n"
                                 for line in data.read_text().splitlines()))
        pred.write_text("".join(f"{t % 3 + 1}\n" for t in range(40)))
        outputs = []
        for given in (truth, data):
            res = runner.invoke(cli, ["eval", "--pred", str(pred),
                                      "--truth", str(given)])
            assert res.exit_code == 0, res.output
            outputs.append(res.output)
        assert outputs[0] == outputs[1]
        assert json.loads(outputs[0])["k_predicted"] == 3

    @pytest.mark.parametrize("command, bad", [
        ("eval", "labels"), ("certify", "labels"), ("fit", "pairs"),
        ("cluster", "graph"), ("certify", "graph"),
    ])
    def test_integer_beyond_64_bits_is_data_error(self, tmp_path, monkeypatch,
                                                 capsys, command, bad):
        huge = "100000000000000000000"
        files = {"labels": "1\n1\n1\n",
                 "pairs": "0,1,1\n2,3,0\n",
                 "graph": "0\t1\t+1\t1\n0\t2\t+1\t1\n1\t2\t-1\t1\n"}
        files[bad] = {"labels": f"1\n{huge}\n1\n",
                      "pairs": f"0,1,1\n2,{huge},0\n",
                      "graph": f"0\t1\t+1\t1\n0\t{huge}\t+1\t1\n"}[bad]
        paths = {}
        for name, text in files.items():
            paths[name] = tmp_path / f"{name}.txt"
            paths[name].write_text(text)
        out = tmp_path / "out"
        args = {
            "eval": ["--pred", paths["labels"], "--truth", paths["labels"]],
            "certify": ["--graph", paths["graph"], "--labels", paths["labels"]],
            "fit": ["--data", self._gen(CliRunner(), tmp_path),
                    "--pairs-file", paths["pairs"]],
            "cluster": ["--graph", paths["graph"]],
        }[command]
        capsys.readouterr()
        assert exit_code(monkeypatch, [command, *map(str, args),
                                       "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert f"cannot read '{huge}'" in err and "Traceback" not in err
        assert not out.exists()

    def test_largest_int64_label_reads(self, tmp_path):
        path = tmp_path / "labels.txt"
        path.write_text("1\n9223372036854775807\n")
        assert _read_labels(path).tolist() == [1, 9223372036854775807]

    def test_pairs_below_one_is_config_error(self, tmp_path, monkeypatch):
        data = self._gen(CliRunner(), tmp_path)
        out = tmp_path / "pairs.csv"
        assert exit_code(monkeypatch, [
            "pairs", "--data", str(data), "--pairs", "0", "--seed", "1",
            "--out", str(out)]) == 2
        assert not out.exists()

    def test_truth_label_beyond_int64_is_data_error(self, tmp_path,
                                                    monkeypatch):
        truth = tmp_path / "truth.csv"
        truth.write_text("1.0,2.0,1\n1.0,1.0,1e20\n3.0,1.0,2e20\n")
        pred = tmp_path / "pred.txt"
        pred.write_text("1\n2\n3\n")
        assert exit_code(monkeypatch, ["eval", "--pred", str(pred),
                                       "--truth", str(truth)]) == 3

    def test_negative_seed_is_config_error(self, tmp_path, monkeypatch,
                                           capsys):
        # every other argument is valid, so --seed alone is rejected
        runner = CliRunner()
        data = self._gen(runner, tmp_path)
        graph = tmp_path / "triangle.tsv"
        graph.write_text("0\t1\t+1\t1\n0\t2\t+1\t1\n1\t2\t-1\t1\n")
        out = tmp_path / "out"
        for args in (["gen", "--kind", "blobs", "--n", "10"],
                     ["pairs", "--data", str(data), "--pairs", "10"],
                     ["cluster", "--graph", str(graph)],
                     ["baseline", "--data", str(data), "--method", "kmeans",
                      "--k", "2"],
                     ["pipeline", "--kind", "blobs", "--holdout", "10",
                      "--train-pool", "20", "--pairs", "100"]):
            capsys.readouterr()
            assert exit_code(monkeypatch, [
                *args, "--seed", "-1", "--out", str(out)]) == 2, args[0]
            err = capsys.readouterr().err
            assert "--seed" in err and "Traceback" not in err, args[0]
            assert not out.exists(), args[0]


class TestRoundTrips:
    @given(st.lists(st.integers(-10**9, 10**9), min_size=1, max_size=30))
    @settings(max_examples=40, deadline=None)
    def test_labels_file(self, labels):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "labels.txt"
            write_lines(path, map(str, labels))
            assert _read_labels(path).tolist() == labels

    @pytest.mark.filterwarnings("ignore:all rows identical")
    @given(arrays(float, st.tuples(st.integers(4, 12), st.integers(1, 3)),
                  elements=st.floats(-1e3, 1e3)),
           st.sampled_from([None, 0.5, 1.0]))
    @settings(max_examples=40, deadline=None)
    def test_model_file(self, vectors, pca):
        same = np.arange(len(vectors)) % 2 == 0
        model = fit_model(vectors, same, "absdiff", pca)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "model.npz"
            save_model(model, path)
            back = load_model(path)
        assert back.similarity == model.similarity
        for side in ("p1", "p0"):
            for field in ("training_points", "bandwidths"):
                assert np.array_equal(getattr(getattr(back, side), field),
                                      getattr(getattr(model, side), field))
        assert (back.pca is None) == (pca is None)
        if pca is not None:
            for field in ("mean", "components", "explained_variance"):
                assert np.array_equal(getattr(back.pca, field),
                                      getattr(model.pca, field))
