import json
import warnings

import numpy as np
import pytest

from semistart.cli import run
from semistart.densities import marron_wand, mixture_to_json


def read_csv(path):
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    header = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:]]
    return header, rows


def test_estimate_constant_start_middle_value(tmp_path):
    data = tmp_path / "data.csv"
    data.write_text("0.0\n")
    out = tmp_path / "out.csv"
    code = run(["estimate", "--input", str(data), "--start", "constant",
                "--h", "1", "--grid", "-1,1,3", "--out", str(out)])
    assert code == 0
    header, rows = read_csv(out)
    assert header == ["x", "f_hat"]
    assert float(rows[1][0]) == 0.0
    assert float(rows[1][1]) == pytest.approx(0.3989423, abs=5e-7)


def test_estimate_compare_column(tmp_path):
    data = tmp_path / "data.csv"
    data.write_text("\n".join(str(v) for v in np.linspace(-1, 1, 30)) + "\n")
    out = tmp_path / "out.csv"
    assert run(["estimate", "--input", str(data), "--h", "0.5",
                "--grid", "-2,2,9", "--compare", "--out", str(out)]) == 0
    header, rows = read_csv(out)
    assert header == ["x", "f_hat", "f_tilde"]
    assert len(rows) == 9
    for row in rows:
        assert all(np.isfinite(float(v)) for v in row)


def test_bench_mise_reference_row(tmp_path):
    out = tmp_path / "bench.csv"
    assert run(["bench-mise", "--cases", "1", "--n", "100", "--out", str(out)]) == 0
    header, rows = read_csv(out)
    assert header == ["case", "n", "h_new", "mise_new", "h_trad", "mise_trad", "ratio"]
    row = rows[0]
    assert row[0] == "1" and row[1] == "100"
    vals = [float(v) for v in row[2:]]
    assert vals[0] == pytest.approx(0.7071, abs=1e-3)
    assert vals[1] == pytest.approx(0.0028, abs=2e-4)
    assert vals[2] == pytest.approx(0.4455, abs=1e-3)
    assert vals[3] == pytest.approx(0.0054, abs=2e-4)
    assert vals[4] == pytest.approx(0.5215, abs=5e-3)


def test_bench_amise_reference_row(tmp_path):
    out = tmp_path / "amise.csv"
    assert run(["bench-amise", "--cases", "1", "--out", str(out)]) == 0
    header, rows = read_csv(out)
    assert header == ["case", "rho_trad", "rho_new", "rho1_trad", "rho1_new"]
    vals = [float(v) for v in rows[0][1:]]
    assert vals[0] == pytest.approx(0.7330, abs=5e-4)
    assert vals[1] == 0.0
    assert vals[2] == pytest.approx(1.8933, abs=5e-3)
    assert vals[3] == 0.0


def test_sample_gof_bandwidth_pipeline(tmp_path):
    mix = tmp_path / "mix.json"
    mix.write_text(mixture_to_json(marron_wand(1)))
    data = tmp_path / "draws.csv"
    assert run(["sample", "--mixture", str(mix), "--n", "500", "--seed", "3",
                "--out", str(data)]) == 0
    draws = np.loadtxt(data)
    assert draws.shape == (500,)

    gof = tmp_path / "gof.csv"
    assert run(["gof", "--input", str(data), "--h", "0.3",
                "--grid", "-2,2,21", "--out", str(gof)]) == 0
    header, rows = read_csv(gof)
    assert header == ["x", "r_hat", "log_r", "z"]
    assert len(rows) == 21

    bwout = tmp_path / "bw.json"
    assert run(["bandwidth", "--input", str(data), "--method", "rule_delta",
                "--out", str(bwout)]) == 0
    doc = json.loads(bwout.read_text())
    assert doc["method"] == "rule_delta"
    assert doc["h"] > 0
    assert "diagnostics" in doc


def test_regress_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    x = rng.uniform(0, 1, 200)
    y = 2 * x + 1 + rng.normal(0, 0.1, 200)
    pairs = tmp_path / "pairs.csv"
    pairs.write_text("\n".join(f"{a},{b}" for a, b in zip(x, y)) + "\n")
    out = tmp_path / "reg.csv"
    assert run(["regress", "--input", str(pairs), "--h", "0.2",
                "--grid", "0.2,0.8,7", "--out", str(out)]) == 0
    header, rows = read_csv(out)
    assert header == ["x", "m_hat", "m_classic"]
    for row in rows:
        assert float(row[1]) == pytest.approx(2 * float(row[0]) + 1, abs=0.15)


def test_regress_at_one_pair(tmp_path, capsys):
    pairs = tmp_path / "one.csv"
    pairs.write_text("0.5,2.0\n")
    out = tmp_path / "reg.csv"
    argv = ["regress", "--input", str(pairs), "--h", "0.2", "--grid", "0,1,3"]
    assert run(argv + ["--mean-start", "constant", "--out", str(out)]) == 0
    assert out.read_text() == "x,m_hat,m_classic\n0,2,2\n0.5,2,2\n1,2,2\n"
    assert run(argv + ["--mean-start", "linear", "--out", str(out)]) == 1
    assert "linear mean start needs at least 2" in capsys.readouterr().err


def test_determinism_byte_identical(tmp_path):
    mix = tmp_path / "mix.json"
    mix.write_text(mixture_to_json(marron_wand(6)))
    outs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        assert run(["sample", "--mixture", str(mix), "--n", "200", "--seed", "11",
                    "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]

    b1, b2 = tmp_path / "t1.csv", tmp_path / "t2.csv"
    for out in (b1, b2):
        assert run(["bench-mise", "--cases", "1,6", "--n", "25", "--out", str(out)]) == 0
    assert b1.read_bytes() == b2.read_bytes()


def test_usage_and_domain_exit_codes(tmp_path, capsys):
    data = tmp_path / "data.csv"
    data.write_text("0.0\n1.0\n2.0\n")
    # mutually exclusive flags: usage error
    assert run(["estimate", "--input", str(data), "--h", "1", "--method",
                "rule_delta", "--grid", "-1,1,3"]) == 2
    assert run(["estimate", "--input", str(data), "--h", "0.3", "--method",
                "bcv", "--grid", "-1,1,3"]) == 2
    # the correction curve has nothing to correct under a constant start
    assert run(["gof", "--input", str(data), "--start", "constant", "--h", "1",
                "--grid", "-1,1,3"]) == 2
    # bad grid spec: usage error
    assert run(["estimate", "--input", str(data), "--h", "1", "--grid", "-1,1"]) == 2
    # numeric domain error: exit 1 and the message names the invariant
    assert run(["estimate", "--input", str(data), "--h", "-0.5",
                "--grid", "-1,1,3"]) == 1
    assert "positive" in capsys.readouterr().err
    # unknown subcommand: argparse usage error
    assert run(["frobnicate"]) == 2


def test_bandwidth_method_paths(tmp_path):
    rng = np.random.default_rng(5)
    data = tmp_path / "d.csv"
    data.write_text("\n".join(str(v) for v in rng.normal(0, 1, 120)) + "\n")
    for method in ("rule_gamma", "plugin", "bcv", "ucv"):
        out = tmp_path / f"{method}.json"
        assert run(["bandwidth", "--input", str(data), "--method", method,
                    "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["method"] in (method, "rule_delta", "plugin")
        assert doc["h"] > 0
    out = tmp_path / "default.json"
    assert run(["bandwidth", "--input", str(data), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["method"] == "rule_delta"


def test_estimate_with_method_and_positive_family(tmp_path):
    rng = np.random.default_rng(6)
    data = tmp_path / "pos.csv"
    data.write_text("\n".join(str(v) for v in rng.gamma(3.0, 1.0, 150)) + "\n")
    out = tmp_path / "est.csv"
    assert run(["estimate", "--input", str(data), "--start", "gamma",
                "--method", "rule_delta", "--grid", "0.1,8,17",
                "--out", str(out)]) == 0
    _, rows = read_csv(out)
    assert all(float(r[1]) >= 0.0 for r in rows)


def test_bench_mise_output_is_pinned(tmp_path):
    # the bytes the table wrote when its rows still ran on a thread pool
    out = tmp_path / "mise.csv"
    assert run(["bench-mise", "--cases", "1,6", "--n", "25,100", "--out", str(out)]) == 0
    assert out.read_text() == (
        "case,n,h_new,mise_new,h_trad,mise_trad,ratio\n"
        "1,25,0.707107,0.0112838,0.609382,0.0137329,0.821664\n"
        "1,100,0.707107,0.00282095,0.445472,0.00540973,0.521458\n"
        "6,25,0.556813,0.0196898,0.602755,0.018244,1.07925\n"
        "6,100,0.382328,0.00750005,0.385378,0.00745053,1.00665\n")


def test_precision_flag(tmp_path):
    out6 = tmp_path / "p6.csv"
    out12 = tmp_path / "p12.csv"
    mix = tmp_path / "mix.json"
    mix.write_text(mixture_to_json(marron_wand(1)))
    run(["sample", "--mixture", str(mix), "--n", "5", "--seed", "1", "--out", str(out6)])
    run(["sample", "--mixture", str(mix), "--n", "5", "--seed", "1",
         "--precision", "12", "--out", str(out12)])
    v6 = out6.read_text().split()[0]
    v12 = out12.read_text().split()[0]
    assert len(v12) > len(v6)
    assert float(v12) == pytest.approx(float(v6), rel=1e-5)


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_non_finite_input_exits_1_naming_the_row(tmp_path, capsys, bad):
    rng = np.random.default_rng(8)
    column = [repr(v) for v in rng.normal(0, 1, 40).tolist()]
    column[6] = bad
    data = tmp_path / "d.csv"
    data.write_text("x\n" + "\n".join(column) + "\n")
    pairs = tmp_path / "p.csv"
    pairs.write_text("x,y\n" + "\n".join(
        f"{i / 40},{bad if i == 6 else '1.5'}" for i in range(40)) + "\n")
    out = tmp_path / "out"
    for argv in (["estimate", "--input", str(data), "--header", "--grid", "-1,1,3"],
                 ["bandwidth", "--input", str(data), "--header"],
                 ["regress", "--input", str(pairs), "--header", "--h", "0.2",
                  "--grid", "0,1,3"]):
        assert run(argv + ["--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "data row 7 is not finite" in err and bad.lstrip("-") in err
        assert not out.exists()


@pytest.mark.parametrize("key,bad,field", [("p", "NaN", "weights"), ("mu", "NaN", "means"),
                                           ("sd", "Infinity", "sds"),
                                           ("mu", "-Infinity", "means")])
def test_non_finite_mixture_json_exits_1_naming_the_field(tmp_path, capsys, key, bad, field):
    comp = {"p": "1.0", "mu": "0.0", "sd": "1.0", key: bad}
    mix = tmp_path / "mix.json"
    mix.write_text('{"components": [{%s}]}' % ", ".join(f'"{k}": {v}' for k, v in comp.items()))
    out = tmp_path / "out"
    assert run(["sample", "--mixture", str(mix), "--n", "5", "--seed", "1",
                "--out", str(out)]) == 1
    assert f"mixture {field} must be finite" in capsys.readouterr().err
    assert not out.exists()


_KINKED_QUAD = pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="known red, the IntegrationWarning FOUND line of CHANGES.md: "
           "integral_of_estimate's quad meets the kernel's kinks at every X_i +/- h "
           "and warns of roundoff (ROADMAP item 3)")


@pytest.mark.parametrize("kernel", ["gaussian",
                                    pytest.param("epanechnikov", marks=_KINKED_QUAD),
                                    pytest.param("uniform", marks=_KINKED_QUAD)])
def test_normalize_emits_no_integration_warning(tmp_path, kernel):
    from scipy.integrate import IntegrationWarning

    data = tmp_path / "d.csv"
    draws = np.random.default_rng(52).gamma(3.0, 1.0, 300)
    data.write_text("\n".join(repr(v) for v in draws.tolist()) + "\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(["estimate", "--input", str(data), "--kernel", kernel, "--h", "0.6",
                    "--normalize", "--grid", "0,10,11", "--out", str(tmp_path / "out")]) == 0
    assert not [w for w in caught if issubclass(w.category, IntegrationWarning)]


def test_em_likelihood_decrease_exits_1(tmp_path, monkeypatch, capsys):
    from semistart import starts
    monkeypatch.setattr(starts, "_em_once", lambda *args: (None, True))
    data = tmp_path / "d.csv"
    data.write_text("\n".join(str(v) for v in np.linspace(-2.0, 2.0, 60)) + "\n")
    assert run(["bandwidth", "--input", str(data), "--start", "normal_mixture",
                "--method", "plugin"]) == 1
    assert "log-likelihood decreased" in capsys.readouterr().err


@pytest.mark.parametrize("h", ["nan", "inf", "0"])
def test_non_finite_or_nonpositive_bandwidth_exits_1(tmp_path, capsys, h):
    data = tmp_path / "d.csv"
    data.write_text("\n".join(str(v) for v in np.linspace(0.5, 3.0, 30)) + "\n")
    pairs = tmp_path / "p.csv"
    pairs.write_text("\n".join(f"{i / 30},{1.0 + i / 30}" for i in range(30)) + "\n")
    out = tmp_path / "out"
    for argv in (["estimate", "--input", str(data), "--h", h, "--grid", "0,1,3"],
                 ["gof", "--input", str(data), "--h", h, "--grid", "0.5,1,3"],
                 ["regress", "--input", str(pairs), "--h", h, "--grid", "0,1,3"]):
        assert run(argv + ["--out", str(out)]) == 1
        assert "bandwidth h must be finite and positive" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("argv, flag", [
    (["estimate", "--h", "0.5", "--grid", "0,inf,3"], "--grid bounds must be finite"),
    (["estimate", "--h", "0.5", "--grid", "nan,1,3"], "--grid bounds must be finite"),
    (["estimate", "--h", "0.5", "--grid", "a,1,3"], "--grid expects lo,hi,count"),
    (["estimate", "--h", "0.5", "--grid", "0,1,x"], "--grid expects lo,hi,count"),
    (["bench-mise", "--cases", "1,x", "--n", "50"], "--cases expects a comma list"),
    (["bench-mise", "--cases", "1", "--n", "50,y"], "--n expects a comma list"),
    (["bench-amise", "--cases", "z"], "--cases expects a comma list"),
    (["estimate", "--h", "0.5", "--grid", "0,1,3", "--precision", "-1"],
     "--precision must be at least 0"),
], ids=["grid_inf", "grid_nan", "grid_word", "grid_count_word", "cases_word", "n_word",
        "amise_cases_word", "negative_precision"])
def test_bad_arguments_are_usage_errors_naming_the_flag(tmp_path, capsys, argv, flag):
    data = tmp_path / "d.csv"
    data.write_text("\n".join(str(v) for v in np.linspace(0.5, 3.0, 30)) + "\n")
    if argv[0] == "estimate":
        argv = argv + ["--input", str(data)]
    out = tmp_path / "out"
    assert run(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and flag in err
    assert "Warning" not in err
    assert not out.exists()
