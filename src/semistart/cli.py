"""Command-line interface.

Subcommands cover estimation on user data, bandwidth selection, the two
benchmark tables, the goodness-of-fit correction curve, mixture sampling and
start-corrected regression.  All file I/O is plain CSV (dot decimal, comma
separator, header optional via --header) or the mixture JSON document; the
same argv and seed always produce byte-identical outputs.

Exit codes: 0 success, 1 numeric/domain failure (message names the violated
condition), 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import warnings

import numpy as np

from . import bandwidth as bw
from . import densities, estimator, exact_mise, regression
from .kernels import SHAPES, kernel_props, require_bandwidth
from .starts import FAMILIES, FittedStart, em_fit_mixture, fit_start

__all__ = ["main", "run"]

_DEF_PRECISION = 6


def _fmt(v: float, precision: int) -> str:
    return f"{v:.{precision}g}"


def _parse_grid(text: str) -> np.ndarray:
    parts = text.split(",")
    if len(parts) != 3:
        raise _Usage("--grid expects lo,hi,count")
    try:
        lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise _Usage(f"--grid expects lo,hi,count as two numbers and an integer, "
                     f"not {text!r}") from None
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise _Usage("--grid bounds must be finite")
    if count < 2:
        raise _Usage("--grid count must be at least 2")
    if not hi > lo:
        raise _Usage("--grid needs hi > lo")
    return np.linspace(lo, hi, count)


def _parse_int_list(flag: str, text: str) -> list[int]:
    try:
        values = [int(t) for t in text.split(",") if t != ""]
    except ValueError:
        values = []
    if not values:
        raise _Usage(f"{flag} expects a comma list of integers, not {text!r}")
    return values


class _Usage(Exception):
    pass


def _check_finite(path: str, values: np.ndarray) -> None:
    """Reject NaN/inf input rows; rows are counted from 1, after any header."""
    bad = ~np.isfinite(values).all(axis=1)
    if np.any(bad):
        row = int(np.argmax(bad))
        raise ValueError(f"{path}: data row {row + 1} is not finite "
                         f"({', '.join(repr(float(v)) for v in values[row])})")


def _read_rows(path: str, header: bool) -> np.ndarray:
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        data = np.loadtxt(path, delimiter=",", skiprows=1 if header else 0, ndmin=2)
    if data.size == 0:
        raise ValueError(f"{path}: no data rows")
    return data


def _read_column(path: str, header: bool) -> np.ndarray:
    data = _read_rows(path, header)
    _check_finite(path, data[:, :1])
    return data[:, 0]


def _read_pairs(path: str, header: bool) -> tuple[np.ndarray, np.ndarray]:
    data = _read_rows(path, header)
    if data.shape[1] < 2:
        raise _Usage("pairs input needs two columns x,y")
    _check_finite(path, data[:, :2])
    return data[:, 0], data[:, 1]


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _build_start(args, data: np.ndarray) -> FittedStart:
    if args.start == "normal_mixture":
        return em_fit_mixture(data, k=args.mixture_k, seed=args.seed)
    return fit_start(args.start, data)


def _choose_h(args, data: np.ndarray, start: FittedStart, kernel) -> float:
    if args.h is not None and args.method is not None:
        raise _Usage("--h and --method are mutually exclusive")
    if args.h is not None:
        require_bandwidth(args.h)
        return args.h
    return bw.select(args.method, data, start, kernel).h


def _cmd_estimate(args) -> None:
    data = _read_column(args.input, args.header)
    kernel = kernel_props(args.kernel)
    start = _build_start(args, data)
    h = _choose_h(args, data, start, kernel)
    grid = _parse_grid(args.grid)
    est = estimator.DensityEstimate(data, kernel, h, start, normalize=args.normalize)
    fhat = np.atleast_1d(estimator.estimate_semiparametric(est, grid))
    cols = [grid, fhat]
    names = ["x", "f_hat"]
    if args.compare:
        cols.append(np.atleast_1d(estimator.estimate_kernel(data, kernel, h, grid)))
        names.append("f_tilde")
    lines = [",".join(names)]
    for row in zip(*cols):
        lines.append(",".join(_fmt(v, args.precision) for v in row))
    _write_text(args.out, "\n".join(lines) + "\n")


def _cmd_bandwidth(args) -> None:
    data = _read_column(args.input, args.header)
    kernel = kernel_props(args.kernel)
    start = _build_start(args, data)
    choice = bw.select(args.method, data, start, kernel)
    diag = {k: (v.tolist() if isinstance(v, np.ndarray) else v)
            for k, v in choice.diagnostics.items()}
    doc = {"method": choice.method, "h": choice.h, "diagnostics": diag}
    _write_text(args.out, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _cmd_bench_amise(args) -> None:
    cases = (list(range(1, 16)) if args.cases is None
             else _parse_int_list("--cases", args.cases))
    lines = ["case,rho_trad,rho_new,rho1_trad,rho1_new"]
    for c in cases:
        m = densities.marron_wand(c)
        rr = densities.roughness(m)
        l1 = densities.l1_measures(m)
        lines.append(",".join([str(c)] + [
            _fmt(v, args.precision)
            for v in (rr.rho_trad, rr.rho_new, l1.rho1_trad, l1.rho1_new)]))
    _write_text(args.out, "\n".join(lines) + "\n")


def _cmd_bench_mise(args) -> None:
    cases = (list(range(1, 16)) if args.cases is None
             else _parse_int_list("--cases", args.cases))
    ns = [25, 50, 100, 200, 1000] if args.n is None else _parse_int_list("--n", args.n)
    reports = exact_mise.benchmark_table(cases, ns)
    _write_text(args.out, exact_mise.reports_to_csv(reports, args.precision))


def _cmd_gof(args) -> None:
    data = _read_column(args.input, args.header)
    kernel = kernel_props(args.kernel)
    if args.start == "constant":
        raise _Usage("the goodness-of-fit curve needs a non-constant start")
    start = _build_start(args, data)
    h = _choose_h(args, data, start, kernel)
    grid = _parse_grid(args.grid)
    est = estimator.DensityEstimate(data, kernel, h, start)
    curve = estimator.correction_curve(est, grid)
    lines = ["x,r_hat,log_r,z"]
    for row in zip(curve.grid, curve.r_hat, curve.log_r, curve.z):
        lines.append(",".join(_fmt(v, args.precision) for v in row))
    _write_text(args.out, "\n".join(lines) + "\n")


def _cmd_sample(args) -> None:
    with open(args.mixture) as fh:
        m = densities.mixture_from_json(fh.read())
    draws = densities.mixture_sample(m, args.n, args.seed)
    lines = ["x"] if args.header else []
    lines += [_fmt(v, args.precision) for v in draws]
    _write_text(args.out, "\n".join(lines) + "\n")


def _cmd_regress(args) -> None:
    x, y = _read_pairs(args.input, args.header)
    kernel = kernel_props(args.kernel)
    if args.h is None:
        raise _Usage("regress requires --h")
    fit = regression.RegressionFit.fit(x, y, kernel, args.h, kind=args.mean_start)
    grid = _parse_grid(args.grid)
    m_hat = regression.gnw_estimate(fit, grid)
    m_classic = regression.nw_estimate(fit, grid)
    lines = ["x,m_hat,m_classic"]
    for row in zip(grid, m_hat, m_classic):
        lines.append(",".join(_fmt(v, args.precision) for v in row))
    _write_text(args.out, "\n".join(lines) + "\n")


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="semistart",
                                description="Semiparametric density estimation tools")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, data_input=True):
        if data_input:
            sp.add_argument("--input", required=True, help="input CSV path")
            sp.add_argument("--header", action="store_true",
                            help="input CSV has a header row")
        sp.add_argument("--out", default=None, help="output path (default stdout)")
        sp.add_argument("--precision", type=int, default=_DEF_PRECISION,
                        help="significant digits in output")

    def estimator_flags(sp, with_h=True):
        """Kernel, start and bandwidth choice, shared by estimate, bandwidth and gof."""
        sp.add_argument("--kernel", default="gaussian", choices=list(SHAPES))
        sp.add_argument("--start", default="normal", choices=list(FAMILIES))
        sp.add_argument("--mixture-k", type=int, default=2)
        if with_h:
            sp.add_argument("--h", type=float, default=None)
        sp.add_argument("--method", default=None,
                        choices=["rule_delta", "rule_gamma", "plugin", "bcv", "ucv"])
        sp.add_argument("--seed", type=int, default=0)

    sp = sub.add_parser("estimate", help="density estimate on a grid")
    common(sp)
    estimator_flags(sp)
    sp.add_argument("--grid", required=True, help="lo,hi,count")
    sp.add_argument("--normalize", action="store_true")
    sp.add_argument("--compare", action="store_true",
                    help="also output the plain kernel estimate")
    sp.set_defaults(func=_cmd_estimate)

    sp = sub.add_parser("bandwidth", help="select a bandwidth, report JSON")
    common(sp)
    estimator_flags(sp, with_h=False)
    sp.set_defaults(func=_cmd_bandwidth)

    sp = sub.add_parser("bench-amise", help="roughness-score table for the test densities")
    common(sp, data_input=False)
    sp.add_argument("--cases", default=None, help="comma list, default 1..15")
    sp.set_defaults(func=_cmd_bench_amise)

    sp = sub.add_parser("bench-mise", help="exact-mise best-vs-best table")
    common(sp, data_input=False)
    sp.add_argument("--cases", default=None, help="comma list, default 1..15")
    sp.add_argument("--n", default=None, help="comma list of sample sizes")
    sp.set_defaults(func=_cmd_bench_mise)

    sp = sub.add_parser("gof", help="correction curve and z-scores on a grid")
    common(sp)
    estimator_flags(sp)
    sp.add_argument("--grid", required=True, help="lo,hi,count")
    sp.set_defaults(func=_cmd_gof)

    sp = sub.add_parser("sample", help="draw from a mixture JSON document")
    common(sp, data_input=False)
    sp.add_argument("--mixture", required=True, help="mixture JSON path")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--seed", type=int, required=True)
    sp.add_argument("--header", action="store_true", help="write a header row")
    sp.set_defaults(func=_cmd_sample)

    sp = sub.add_parser("regress", help="start-corrected kernel regression")
    common(sp)
    sp.add_argument("--kernel", default="gaussian", choices=list(SHAPES))
    sp.add_argument("--mean-start", default="linear", choices=["constant", "linear"])
    sp.add_argument("--h", type=float, default=None)
    sp.add_argument("--grid", required=True, help="lo,hi,count")
    sp.set_defaults(func=_cmd_regress)

    return p


_NUMERIC_LIST = r"^-?\d[\d.,eE+-]*$"


def _merge_negative_values(argv: list[str]) -> list[str]:
    """Join `--grid -1,1,3` into `--grid=-1,1,3` so argparse keeps the value."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in ("--grid", "--h") and i + 1 < len(argv) \
                and re.match(_NUMERIC_LIST, argv[i + 1]):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def run(argv=None) -> int:
    parser = _build_parser()
    if argv is None:
        argv = sys.argv[1:]
    argv = _merge_negative_values(list(argv))
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed the message
        return int(exc.code or 0)
    try:
        if args.precision < 0:
            raise _Usage("--precision must be at least 0")
        args.func(args)
    except _Usage as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
