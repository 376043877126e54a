"""Importing semistart loads NumPy only, and so does every request; SciPy loads
only when an integral misses its tolerance.

Each test starts a fresh interpreter with src/ first on sys.path, because the
test process itself has long since imported SciPy.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from semistart.cli import run
from semistart.densities import marron_wand

from conftest import mixture_to_json

SRC = str(Path(__file__).resolve().parents[1] / "src")

# the child prints the argv of each request that left a scipy module loaded
_CHILD = """
import json, sys
sys.path.insert(0, sys.argv[1])
import semistart, semistart.cli

def loaded():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

bad = [["import"]] if loaded() else []
for argv in json.loads(sys.argv[2]):
    code = semistart.cli.run(argv)
    if code != 0 or loaded():
        bad.append([code] + argv)
        break
print(json.dumps(bad))
"""


def _fresh(code, *args, cwd):
    return subprocess.run([sys.executable, "-c", code, SRC, *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.fixture
def inputs(tmp_path):
    rng = np.random.default_rng(12)
    data = tmp_path / "data.csv"
    draws = np.exp(rng.normal(0.2, 0.5, 200))
    data.write_text("\n".join(repr(v) for v in draws.tolist()) + "\n")
    pairs = tmp_path / "pairs.csv"
    x = rng.uniform(0.0, 1.0, 60)
    y = 2.0 * x + 1.0 + rng.normal(0.0, 0.1, 60)
    pairs.write_text("\n".join(f"{a!r},{b!r}" for a, b in zip(x.tolist(), y.tolist())) + "\n")
    mix = tmp_path / "mix.json"
    mix.write_text(mixture_to_json(marron_wand(6)))
    return {"data": str(data), "pairs": str(pairs), "mix": str(mix),
            "out": str(tmp_path / "out")}


def test_import_loads_no_scipy(tmp_path):
    proc = _fresh(_CHILD, "[]", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


def test_import_starts_no_thread_pool(tmp_path):
    # the block pool and concurrent.futures load with the first block sum
    child = ("import json, sys; sys.path.insert(0, sys.argv[1]); import semistart.cli; "
             "from semistart import kernels; "
             "print(json.dumps(['concurrent.futures' in sys.modules, kernels._pool is None]))")
    proc = _fresh(child, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [False, True]


def test_numpy_only_requests_load_no_scipy(tmp_path, inputs):
    data, out = ["--input", inputs["data"]], ["--out", inputs["out"]]
    grid = ["--grid", "0.2,4,25"]
    requests = [
        ["estimate", *data, "--start", "normal", *grid],
        ["estimate", *data, "--start", "normal", "--compare", *grid],
        ["estimate", *data, "--start", "lognormal", *grid],
        ["estimate", *data, "--start", "lognormal", "--compare", *grid],
        # the gamma start's log-gamma, normal CDF and clip edges are semistart.special's
        ["estimate", *data, "--start", "gamma", *grid],
        ["estimate", *data, "--start", "gamma", "--compare", *grid],
        ["estimate", *data, "--start", "gamma", "--normalize", *grid],
        ["gof", *data, *grid],
        ["gof", *data, "--start", "gamma", *grid],
        ["regress", "--input", inputs["pairs"], "--h", "0.2", "--grid", "0,1,11"],
        ["regress", "--input", inputs["pairs"], "--h", "0.2", "--grid", "0,1,11",
         "--mean-start", "constant"],
        ["bench-mise", "--cases", "1,6", "--n", "50,200"],
        ["bench-amise", "--cases", "1,6"],
        ["sample", "--mixture", inputs["mix"], "--n", "20", "--seed", "4"],
    ]
    # the lognormal start and --normalize integrate with semistart.quadpack
    requests += [["bandwidth", *data, "--start", start, "--method", method]
                 for start in ("normal", "constant", "lognormal", "gamma")
                 for method in ("bcv", "ucv", "plugin")]
    requests.append(["estimate", *data, "--kernel", "gaussian", "--normalize", *grid])
    proc = _fresh(_CHILD, json.dumps([argv + out for argv in requests]), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


def test_l1_measures_loads_no_scipy(tmp_path):
    # the sign changes of int |g| are found by densities._brentq, not SciPy's
    child = ("import json, sys; sys.path.insert(0, sys.argv[1]); "
             "from semistart.densities import l1_measures, marron_wand; "
             "l1_measures(marron_wand(6)); "
             "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))")
    proc = _fresh(child, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


def test_gamma_start_loads_no_scipy_stats(tmp_path, inputs):
    # nor any other part of SciPy: the clip edges come from semistart.special
    child = ("import json, sys; sys.path.insert(0, sys.argv[1]); import semistart.cli; "
             "code = semistart.cli.run(sys.argv[2:]); "
             "print(json.dumps([code] + sorted(m for m in sys.modules "
             "if m.split('.')[0] == 'scipy')))")
    argv = ["estimate", "--input", inputs["data"], "--start", "gamma",
            "--grid", "0.2,4,25", "--out", inputs["out"]]
    proc = _fresh(child, *argv, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [0]


def test_python_dash_m_runs_the_cli(tmp_path, capsys):
    # `python -m semistart.cli` runs the same command as the console script
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p)}

    def python_m(*argv):
        return subprocess.run([sys.executable, "-m", "semistart.cli", *argv], cwd=tmp_path,
                              env=env, capture_output=True, text=True, timeout=300)

    proc = python_m("bench-amise", "--cases", "1")
    assert proc.returncode == 0, proc.stderr
    assert run(["bench-amise", "--cases", "1"]) == 0
    assert proc.stdout == capsys.readouterr().out != ""
    proc = python_m("frobnicate")
    assert proc.returncode == 2 and "invalid choice" in proc.stderr


@pytest.mark.parametrize("argv", [
    ["estimate", "--start", "gamma", "--grid", "0.2,4,25"],
    ["estimate", "--normalize", "--grid", "0.2,4,25"],
    ["bandwidth", "--method", "bcv", "--start", "lognormal"],
    ["bench-amise", "--cases", "1"],
], ids=["gamma", "normalize", "bcv-lognormal", "bench-amise"])
def test_scipy_requests_run_first_in_a_fresh_process(tmp_path, inputs, capsys, argv):
    # requests that once imported SciPy on first use print the same bytes in a
    # fresh process as in this warm one; the gamma start no longer loads SciPy
    # at all, and stays here as a fresh-against-warm check of its clip edges
    if argv[0] != "bench-amise":
        argv = argv[:1] + ["--input", inputs["data"]] + argv[1:]
    child = ("import sys; sys.path.insert(0, sys.argv[1]); import semistart.cli; "
             "sys.exit(semistart.cli.run(sys.argv[2:]))")
    proc = _fresh(child, *argv, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert run(argv) == 0
    assert proc.stdout == capsys.readouterr().out
