"""Golden outputs: pipeline reports for a fixed config set, and every file of
the README's stage-by-stage CLI chain, compared with the copies stored in
tests/golden/.

Labels, cluster counts, pair indices and every other integer must match
exactly; floats must match to 1e-9 relative (1e-12 absolute near zero).

tests/golden/data.csv is the stored input of the CSV config. After a change
that is meant to alter outputs, regenerate the copies with
``PYTHONPATH=src python tests/test_golden.py`` and explain the difference in
CHANGES.md.
"""
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from edgeclust.cli import cli
from edgeclust.pipeline import RunConfig, run_pipeline

GOLDEN = Path(__file__).parent / "golden"
REL_TOL = 1e-9
ABS_TOL = 1e-12

EDGE_SPEC = {
    "sizes": [4, 4],
    "p1": {"kind": "gaussian", "mean": [0.0, 0.0], "sigma": [1.0, 1.0]},
    "p0": {"kind": "gaussian", "mean": [1.5, 1.5], "sigma": [1.0, 1.0]},
}

CONFIGS = {
    "blobs_lp_baselines": dict(dataset="blobs", seed=1, holdout=24,
                               train_pool=60, pairs=400, noise=0.4, k=2,
                               baselines=True),
    "crossbones_pivot": dict(dataset="crossbones", seed=2, algo="pivot",
                             holdout=40, train_pool=80, pairs=500),
    "grid_pca_euclid_sparsify": dict(dataset="grid", seed=3, pca=0.9,
                                     similarity="euclid", sparsify=0.1,
                                     holdout=24, train_pool=80, pairs=600),
    "edge_level_oracle": dict(dataset="edge_level", seed=4, algo="oracle",
                              edge_spec=EDGE_SPEC),
    "csv_lp": dict(dataset="data.csv", seed=5, holdout=20, train_pool=40,
                   pairs=300),
}

# (output file, CLI arguments); {d} is the working directory
CHAIN = [
    ("data.csv", ["gen", "--kind", "crossbones", "--n", "10", "--seed", "1",
                  "--out", "{d}/data.csv"]),
    ("pairs.csv", ["pairs", "--data", "{d}/data.csv", "--pairs", "40",
                   "--seed", "2", "--out", "{d}/pairs.csv"]),
    ("model.npz", ["fit", "--data", "{d}/data.csv", "--pairs-file",
                   "{d}/pairs.csv", "--pca", "0.9", "--out", "{d}/model.npz"]),
    ("graph.tsv", ["graph", "--data", "{d}/data.csv", "--model",
                   "{d}/model.npz", "--sparsify", "0.1",
                   "--out", "{d}/graph.tsv"]),
    ("lp.txt", ["cluster", "--graph", "{d}/graph.tsv", "--n", "10", "--algo",
                "lp", "--out", "{d}/lp.txt", "--certificate", "{d}/cert.json"]),
    ("pivot.txt", ["cluster", "--graph", "{d}/graph.tsv", "--n", "10",
                   "--algo", "pivot", "--seed", "3", "--out", "{d}/pivot.txt"]),
    ("oracle.txt", ["cluster", "--graph", "{d}/graph.tsv", "--n", "10",
                    "--algo", "oracle", "--out", "{d}/oracle.txt"]),
    ("certify.json", ["certify", "--graph", "{d}/graph.tsv", "--n", "10",
                      "--labels", "{d}/pivot.txt", "--out",
                      "{d}/certify.json"]),
]
CHAIN_FILES = [name for name, _ in CHAIN] + ["cert.json"]


def _report(name, workdir):
    fields = dict(CONFIGS[name])
    if fields["dataset"] == "data.csv":
        fields["dataset"] = str(workdir / "data.csv")
    rep = run_pipeline(RunConfig(**fields)).to_dict(include_timing=False)
    rep["config"]["dataset"] = CONFIGS[name]["dataset"]
    return rep


def _run_chain(workdir):
    runner = CliRunner()
    for _, args in CHAIN:
        res = runner.invoke(cli, [a.format(d=workdir) for a in args])
        assert res.exit_code == 0, f"{args[0]}: {res.output}"


def _assert_close(got, want, where):
    if isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), where
        for key in want:
            _assert_close(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for t, (g, w) in enumerate(zip(got, want)):
            _assert_close(g, w, f"{where}[{t}]")
    elif isinstance(want, float):
        assert isinstance(got, float), where
        assert math.isclose(got, want, rel_tol=REL_TOL, abs_tol=ABS_TOL), \
            f"{where}: {got!r} != {want!r}"
    else:
        assert type(got) is type(want) and got == want, \
            f"{where}: {got!r} != {want!r}"


def _parse_field(text):
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            pass
    return text


def _text_rows(path):
    return [[_parse_field(f) for f in line.replace("\t", ",").split(",")]
            for line in path.read_text().splitlines()]


def _assert_file_close(got, want):
    if want.suffix == ".json":
        _assert_close(json.loads(got.read_text()), json.loads(want.read_text()),
                      want.name)
    elif want.suffix == ".npz":
        with np.load(got) as g, np.load(want) as w:
            assert list(g.keys()) == list(w.keys())
            for key in w.keys():
                if w[key].dtype.kind in "fc":
                    assert g[key].shape == w[key].shape, key
                    assert np.allclose(g[key], w[key], rtol=REL_TOL,
                                       atol=ABS_TOL), key
                else:
                    assert np.array_equal(g[key], w[key]), key
    else:
        _assert_close(_text_rows(got), _text_rows(want), want.name)


@pytest.fixture
def workdir(tmp_path):
    shutil.copy(GOLDEN / "data.csv", tmp_path / "data.csv")
    return tmp_path


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_report_matches_golden(name, workdir):
    want = json.loads((GOLDEN / "reports.json").read_text())[name]
    _assert_close(_report(name, workdir), want, name)


def test_report_independent_of_blas_threads():
    """The KDE's matrix products give the same timing-free report bytes with
    one BLAS thread and with two."""
    script = ("import json, sys\n"
              "from edgeclust.pipeline import RunConfig, run_pipeline\n"
              "cfg = RunConfig(**json.loads(sys.argv[1]))\n"
              "sys.stdout.write(run_pipeline(cfg).to_json("
              "include_timing=False))\n")
    reports = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads)
        proc = subprocess.run(
            [sys.executable, "-c", script,
             json.dumps(CONFIGS["crossbones_pivot"])],
            env=env, capture_output=True, check=True)
        reports.append(proc.stdout)
    assert reports[0] and reports[0] == reports[1]


def test_stage_chain_matches_golden(tmp_path):
    _run_chain(tmp_path)
    for name in CHAIN_FILES:
        _assert_file_close(tmp_path / name, GOLDEN / "chain" / name)


def test_stage_chain_is_byte_deterministic(tmp_path):
    """Two runs of the chain in fresh directories write the same bytes, but
    for model.npz, whose zip entries carry a timestamp: it must hold the same
    keys in the same order and bit-equal arrays."""
    runs = [tmp_path / "a", tmp_path / "b"]
    for workdir in runs:
        workdir.mkdir()
        _run_chain(workdir)
    for name in CHAIN_FILES:
        first, second = (workdir / name for workdir in runs)
        if first.suffix != ".npz":
            assert first.read_bytes() == second.read_bytes(), name
            continue
        with np.load(first) as a, np.load(second) as b:
            assert list(a.keys()) == list(b.keys())
            for key in a.keys():
                assert a[key].dtype == b[key].dtype, key
                assert a[key].shape == b[key].shape, key
                assert a[key].tobytes() == b[key].tobytes(), key


def _write_golden():
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        shutil.copy(GOLDEN / "data.csv", tmp / "data.csv")
        reports = {name: _report(name, tmp) for name in sorted(CONFIGS)}
        (GOLDEN / "reports.json").write_text(
            json.dumps(reports, sort_keys=True, indent=2) + "\n")
    with tempfile.TemporaryDirectory() as tmp:
        _run_chain(Path(tmp))
        (GOLDEN / "chain").mkdir(exist_ok=True)
        for name in CHAIN_FILES:
            shutil.copy(Path(tmp) / name, GOLDEN / "chain" / name)


if __name__ == "__main__":
    _write_golden()
