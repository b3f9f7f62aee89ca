"""edgeclust imports no scipy Python package: corrclust loads scipy's
compiled HiGHS module from its file. Each check runs in a fresh interpreter,
because the test process has imported scipy already."""
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
CORE = "scipy.optimize._highspy._core"

GUARD = f"""
import json, sys
import edgeclust, edgeclust.cli
from edgeclust import corrclust
from edgeclust.densities import GaussianDensity, MixtureDensity
from edgeclust.pipeline import RunConfig, run_pipeline

solves, entry = [], corrclust.linprog
corrclust.linprog = lambda *args, **kwargs: solves.append(1) or entry(*args, **kwargs)
run_pipeline(RunConfig(dataset="crossbones", seed=0, algo="lp", holdout=8, pairs=200))
mix = MixtureDensity((GaussianDensity([0.0], [1.0]), GaussianDensity([2.0], [0.5])))
mix.logpdf_many([[0.0], [1.0]])
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

import scipy.optimize
from scipy.optimize._highspy import _core
res = scipy.optimize.linprog([1.0, 1.0], A_ub=[[-1.0, -1.0]], b_ub=[-1.0],
                             bounds=(0, 1), method="highs")
json.dump({{"solves": len(solves), "loaded": loaded,
           "shared": sys.modules["{CORE}"] is corrclust.highs is _core,
           "scipy_solved": bool(res.success), "scipy_objective": res.fun}},
          sys.stdout)
"""


def run_python(code, *path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [*map(str, path), str(SRC), os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=300)


def test_no_scipy_package_is_imported():
    proc = run_python(GUARD)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    assert got["solves"] >= 1
    assert got["loaded"] and all(m == CORE or m.startswith(CORE + ".")
                                 for m in got["loaded"]), got["loaded"]
    # a later import of scipy.optimize uses the module corrclust loaded
    assert got["shared"]
    assert got["scipy_solved"] and got["scipy_objective"] == 1.0


def test_missing_extension_names_the_path(tmp_path):
    # a scipy package without the compiled module; running its __init__
    # would raise, so the loader must only locate it
    fake = tmp_path / "scipy"
    fake.mkdir()
    (fake / "__init__.py").write_text("raise RuntimeError('scipy was imported')\n")
    proc = run_python("import edgeclust", tmp_path)
    assert proc.returncode == 1
    last = proc.stderr.strip().splitlines()[-1]
    assert last.startswith("ImportError: edgeclust needs scipy>=1.15")
    assert str(fake / "optimize" / "_highspy" / "_core") in last


def test_earlier_scipy_import_is_reused():
    proc = run_python(f"import {CORE} as core\n"
                      "from edgeclust import corrclust\n"
                      "assert corrclust.highs is core\n")
    assert proc.returncode == 0, proc.stderr
