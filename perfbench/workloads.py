"""Workload definitions: inputs generated from the seed, and the task lists.

Inputs come from numpy's PCG64 directly (never from semistart's own
samplers), so a change to semistart cannot change what it is fed.  A seed
selects one of INPUT_SETS input sets (seed mod INPUT_SETS); references are
stored for every set, so any seed can be checked.

A task returns its output: the bytes a CLI request wrote, or a dict of
arrays for the library calls of large_n_grid.  One cycle is one pass over a
workload's task list; every cycle of a run does identical work.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

INPUT_SETS = 8

# Marron & Wand (1992) test densities, written out here on purpose: the
# benchmark's inputs must not depend on semistart.densities.
MW_SKEWED = ([0.2, 0.2, 0.6], [0.0, 0.5, 13.0 / 12.0], [1.0, 2.0 / 3.0, 5.0 / 9.0])  # case 2
MW_BIMODAL = ([0.5, 0.5], [-1.0, 1.0], [2.0 / 3.0, 2.0 / 3.0])  # case 6


@dataclass(frozen=True)
class Task:
    id: str
    run: Callable[[], object]


def _rng(input_set: int, stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([input_set, stream])))


def _mixture_draws(rng: np.random.Generator, mix, n: int) -> np.ndarray:
    w, mu, sd = (np.asarray(v, dtype=float) for v in mix)
    idx = rng.choice(w.size, size=n, p=w)
    return mu[idx] + sd[idx] * rng.standard_normal(n)


def _regression_pairs(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    x = rng.uniform(0.0, 1.0, n)
    y = 2.0 + x + 0.5 * np.sin(2.0 * np.pi * x) + 0.3 * rng.standard_normal(n)
    return x, y


def _write_column(path: str, x: np.ndarray) -> None:
    np.savetxt(path, x, fmt="%.17g")


# ---------------------------------------------------------------- large_n_grid

N_LARGE = 50_000
N_LARGE_2D = 10_000
GRID_1D = (-4.0, 4.0, 161)
GRID_REG = (0.0, 1.0, 161)
GRID_2D = (-3.0, 3.0, 41)


def large_n_grid(ss, input_set: int, workdir: str) -> tuple[list[Task], Task]:
    """Library calls at large n (1-d density, regression, 2-d density), plus
    one small-n task for the starts and paths those do not reach."""
    x = _mixture_draws(_rng(input_set, 1), MW_SKEWED, N_LARGE)
    xr, yr = _regression_pairs(_rng(input_set, 2), N_LARGE)
    r3 = _rng(input_set, 3)
    comp = r3.integers(0, 2, N_LARGE_2D)
    x2 = r3.standard_normal((N_LARGE_2D, 2)) @ np.array([[1.0, 0.0], [0.6, 0.8]])
    x2 = x2 + np.where(comp[:, None] == 0, -1.0, 1.0) * np.array([1.0, 0.5])
    r4 = _rng(input_set, 4)
    bimodal = _mixture_draws(r4, MW_BIMODAL, 1000)
    gam = r4.gamma(3.0, 1.0, 1000)
    skew200 = x[:200]
    grid = np.linspace(*GRID_1D)
    grid_pos = np.linspace(0.05, 12.0, 161)
    grid_reg = np.linspace(*GRID_REG)
    g = np.linspace(*GRID_2D)
    grid_2d = np.column_stack([np.repeat(g, g.size), np.tile(g, g.size)])
    kernel = ss.kernel_props("gaussian")

    def density_1d():
        start = ss.fit_start("normal", x)
        h = ss.rule_delta(x, kernel).h
        est = ss.DensityEstimate(x, kernel, h, start)
        f_hat = ss.estimate_semiparametric(est, grid)
        f_tilde = ss.estimate_kernel(x, kernel, h, grid)
        curve = ss.correction_curve(est, grid)
        return {"h": np.array([h]), "f_hat": f_hat, "f_tilde": f_tilde,
                "r_hat": curve.r_hat, "log_r": curve.log_r, "z": curve.z}

    def regression():
        fit = ss.RegressionFit.fit(xr, yr, kernel, 0.02)
        return {"m_hat": ss.gnw_estimate(fit, grid_reg),
                "m_classic": ss.nw_estimate(fit, grid_reg)}

    def density_2d():
        h = ss.mv_bandwidth(x2).h
        est = ss.MvEstimate.fit(x2, h)
        return {"h": np.array([h]), "f_hat": ss.mv_estimate(est, grid_2d)}

    def small_n():
        # the start families and paths the large-n tasks do not reach: EM,
        # gamma, the classic moment rule, the quadrature of --normalize, and
        # the exact-MISE and roughness tables
        mix = ss.em_fit_mixture(bimodal, k=2, seed=input_set)
        f_mix = ss.estimate_semiparametric(
            ss.DensityEstimate(bimodal, kernel, ss.rule_gamma(bimodal, kernel).h, mix), grid)
        h_gam = ss.rule_delta(gam, kernel).h
        f_gam = ss.estimate_semiparametric(
            ss.DensityEstimate(gam, kernel, h_gam, ss.fit_start("gamma", gam)), grid_pos)
        h_norm = ss.rule_delta(skew200, kernel).h
        f_norm = ss.estimate_semiparametric(
            ss.DensityEstimate(skew200, kernel, h_norm, ss.fit_start("normal", skew200),
                               normalize=True), grid)
        # two exact-MISE rows (one per pool thread) and one roughness row,
        # for Marron-Wand case 6
        rows = ss.benchmark_table([6], [100, 200])
        truth = ss.marron_wand(6)
        rough, l1 = ss.roughness(truth), ss.l1_measures(truth)
        table = [v for row in rows for v in (row.h_star_new, row.mise_star_new,
                                             row.h_star_trad, row.mise_star_trad)]
        table += [rough.rho_trad, rough.rho_new, l1.rho1_trad, l1.rho1_new]
        return {"f_mixture": f_mix, "f_gamma": f_gam, "f_normalized": f_norm,
                "tables": np.array(table)}

    tasks = [Task("density_1d", density_1d), Task("regression", regression),
             Task("density_2d", density_2d), Task("small_n", small_n)]
    return tasks, tasks[1]  # warm up with the regression, which is NumPy-bound


# ------------------------------------------------------------ CLI workloads

def _cli_task(ss, workdir: str, task_id: str, argv: list[str]) -> Task:
    out = os.path.join(workdir, f"{task_id}.out")
    full = [a.replace("@", workdir + os.sep) for a in argv] + ["--out", out]

    def run():
        code = ss.cli.run(full)
        if code != 0:
            raise RuntimeError(f"cli.run returned {code} for {' '.join(argv)}")
        with open(out, "rb") as fh:
            return fh.read()

    return Task(task_id, run)


def pairwise_selectors(ss, input_set: int, workdir: str) -> tuple[list[Task], Task]:
    """O(n^2) bandwidth selectors through the CLI's 32-point grid up to h_os."""
    _write_column(os.path.join(workdir, "skew1000.csv"),
                  _mixture_draws(_rng(input_set, 1), MW_SKEWED, 1000))
    _write_column(os.path.join(workdir, "pos500.csv"),
                  np.exp(0.5 * _rng(input_set, 2).standard_normal(500)))
    specs = [
        ("bcv_normal", "skew1000", "bcv", "normal"),
        ("ucv_normal", "skew1000", "ucv", "normal"),
        ("bcv_constant", "skew1000", "bcv", "constant"),
        ("ucv_constant", "skew1000", "ucv", "constant"),
        ("bcv_lognormal", "pos500", "bcv", "lognormal"),
        ("ucv_lognormal", "pos500", "ucv", "lognormal"),
        ("plugin_normal", "skew1000", "plugin", "normal"),
        ("plugin_lognormal", "pos500", "plugin", "lognormal"),
    ]
    tasks = [_cli_task(ss, workdir, tid, ["bandwidth", "--input", f"@{data}.csv",
                                          "--method", method, "--start", start])
             for tid, data, method, start in specs]
    return tasks, tasks[6]  # warm up with plugin_normal, the cheapest NumPy-bound request


WORKLOADS = {
    "large_n_grid": large_n_grid,
    "pairwise_selectors": pairwise_selectors,
}
