"""Spans around semistart's public functions, recorded from the benchmark.

Tracer.install replaces each listed function in every semistart module
namespace that binds it (for example eval_scaled in kernels, estimator,
bandwidth and regression), so calls made inside the package are recorded
too.  Nothing under src/ is edited; uninstall restores the originals.

Spans are (id, parent, name, start, end, thread) tuples kept on per-thread
stacks.  A span opened on a thread with an empty stack (a row of
benchmark_table's pool) takes as parent the innermost open span of the
thread that runs the tasks, which is the enclosing benchmark_table span.
"""

from __future__ import annotations

import functools
import gzip
import itertools
import json
import sys
import threading
import tracemalloc
from collections import defaultdict
from time import perf_counter

import numpy as np

TRACED = {
    "kernels": ["eval_scaled"],
    "densities": ["mixture_pdf", "roughness", "l1_measures"],
    "starts": ["fit_start", "em_fit_mixture", "eval_start"],
    "hermite": ["classic_coeffs", "robust_coeffs"],
    "estimator": ["estimate_semiparametric", "estimate_kernel", "correction_curve",
                  "integral_of_estimate"],
    "bandwidth": ["rule_delta", "rule_gamma", "rule_plugin", "plugin_roughness", "bcv", "ucv"],
    "exact_mise": ["benchmark_table", "optimal_h", "mise_new", "mise_kernel", "h_domain_cap"],
    "multivariate": ["mv_bandwidth", "mv_estimate"],
    "regression": ["gnw_estimate", "nw_estimate"],
    "cli": ["run"],
}
# A private function, traced only so that pool rows have spans of their own
# (exact_mise.benchmark_table.parallelism); it is not reported.
ROW = "exact_mise._benchmark_row"
MEMORY = ["estimator.estimate_semiparametric", "estimator.correction_curve",
          "regression.gnw_estimate", "multivariate.mv_estimate", "bandwidth.bcv",
          "bandwidth.ucv"]
FUNCTIONS = [f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns]


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count_eval_scaled(counts, args, kwargs, result):
    size = int(np.size(result))
    counts["kernels.eval_scaled.evals"] += size
    # float64 in and out; computed from the array sizes, cache effects ignored
    counts["kernels.eval_scaled.bytes_computed"] += 8 * (int(np.size(_arg(args, kwargs, 2, "z")))
                                                        + size)


def _count_pairs(name):
    def count(counts, args, kwargs, result):
        n = int(np.size(_arg(args, kwargs, 0, "data")))
        grid = int(np.size(_arg(args, kwargs, 3, "h_grid")))
        counts[name] += n * n * grid
    return count


def _count_mv_pairs(counts, args, kwargs, result):
    est = _arg(args, kwargs, 0, "e")
    x = np.asarray(_arg(args, kwargs, 1, "x"))
    points = 1 if x.ndim == 1 else x.shape[0]
    counts["multivariate.mv_estimate.pair_evals"] += points * est.data.shape[0]


def _count_failed(counts, args, kwargs, result):
    counts["cli.run.failed"] += int(result != 0)


COUNTERS = {
    "kernels.eval_scaled": _count_eval_scaled,
    "bandwidth.bcv": _count_pairs("bandwidth.bcv.pair_evals"),
    "bandwidth.ucv": _count_pairs("bandwidth.ucv.pair_evals"),
    "multivariate.mv_estimate": _count_mv_pairs,
    "cli.run": _count_failed,
}
COUNT_NAMES = ["kernels.eval_scaled.evals", "kernels.eval_scaled.bytes_computed",
               "bandwidth.bcv.pair_evals", "bandwidth.ucv.pair_evals",
               "multivariate.mv_estimate.pair_evals",
               "estimator.integral_of_estimate.inner_calls",
               "exact_mise.optimal_h.curve_evals", "cli.run.failed"]


class _MemoryFrames:
    """Nested tracemalloc peaks: each frame keeps its own base and maximum."""

    def __init__(self):
        self.frames: list[list[int]] = []  # [base, peak_seen]

    def enter(self):
        if not self.frames:
            tracemalloc.start()
            self.frames.append([0, 0])
            return
        current, peak = tracemalloc.get_traced_memory()
        top = self.frames[-1]
        top[1] = max(top[1], peak)
        tracemalloc.reset_peak()
        self.frames.append([current, current])

    def exit(self) -> int:
        _, peak = tracemalloc.get_traced_memory()
        base, seen = self.frames.pop()
        seen = max(seen, peak)
        if self.frames:
            self.frames[-1][1] = max(self.frames[-1][1], seen)
        else:
            tracemalloc.stop()
        return seen - base


class Tracer:
    """Records spans and counts while installed; memory mode records peaks only."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.peaks: dict[str, float] = defaultdict(float)
        self.memory_mode = False
        self._task_thread = threading.get_ident()
        self._local = threading.local()
        self._task_stack: list[int] = []
        self._ids = itertools.count(1)
        self._threads: dict[int, int] = {}
        self._memory = _MemoryFrames()
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            if threading.get_ident() == self._task_thread:
                stack = self._task_stack
            else:
                stack = []
            self._local.stack = stack
        return stack

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        track_memory = name in MEMORY

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.memory_mode:
                if not (track_memory and threading.get_ident() == self._task_thread):
                    return fn(*args, **kwargs)
                self._memory.enter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    peak = self._memory.exit() / 2**20
                    self.peaks[name] = max(self.peaks[name], peak)
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                task_stack = self._task_stack
                parent = task_stack[-1] if task_stack else 0
            sid = next(self._ids)
            thread = self._threads.setdefault(threading.get_ident(), len(self._threads))
            stack.append(sid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                self.spans.append((sid, parent, name, t0, t1, thread))
            if counter is not None:
                counter(self.counts, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "semistart" or key.startswith("semistart."))]
        for name in FUNCTIONS + [ROW]:
            mod_name, fn_name = name.rsplit(".", 1)
            original = getattr(sys.modules[f"semistart.{mod_name}"], fn_name)
            wrapper = self._wrap(name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def write_spans(self, path: str) -> None:
        with gzip.open(path, "wt") as fh:
            for sid, parent, name, t0, t1, thread in self.spans:
                fh.write(json.dumps([sid, parent, name, t0, t1, thread]) + "\n")

    def layer_metrics(self, cycles: int) -> dict[str, float]:
        """Per-cycle calls, inclusive and self milliseconds, and the counts."""
        by_id = {s[0]: s for s in self.spans}
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for sid, parent, name, t0, t1, _ in self.spans:
            children[parent].append((t0, t1))

        def covered(intervals):
            total, end = 0.0, -np.inf
            for t0, t1 in sorted(intervals):
                if t1 > end:
                    total += t1 - max(t0, end)
                    end = t1
            return total

        def ancestors(sid):
            parent = by_id[sid][1]
            while parent in by_id:
                yield by_id[parent]
                parent = by_id[parent][1]

        calls: dict[str, int] = defaultdict(int)
        incl: dict[str, float] = defaultdict(float)
        self_t: dict[str, float] = defaultdict(float)
        counts = defaultdict(int, self.counts)
        rows_busy = table_wall = 0.0
        for sid, parent, name, t0, t1, _ in self.spans:
            if name == ROW:
                rows_busy += t1 - t0
                continue
            calls[name] += 1
            self_t[name] += (t1 - t0) - covered(children.get(sid, ()))
            names_above = [a[2] for a in ancestors(sid)]
            if name not in names_above:  # inclusive time of the outermost call only
                incl[name] += t1 - t0
                if name == "exact_mise.benchmark_table":
                    table_wall += t1 - t0
            if name == "estimator.estimate_semiparametric" \
                    and "estimator.integral_of_estimate" in names_above:
                counts["estimator.integral_of_estimate.inner_calls"] += 1
            if name in ("exact_mise.mise_new", "exact_mise.mise_kernel") \
                    and "exact_mise.optimal_h" in names_above:
                counts["exact_mise.optimal_h.curve_evals"] += 1

        out: dict[str, float] = {}
        for name in FUNCTIONS:
            out[f"{name}.calls"] = _count_per_cycle(calls[name], cycles)
            out[f"{name}.ms"] = 1e3 * incl[name] / cycles
            out[f"{name}.self_ms"] = 1e3 * self_t[name] / cycles
        for name in COUNT_NAMES:
            out[name] = _count_per_cycle(counts[name], cycles)
        # curve evaluations per search; their total is this times optimal_h.calls
        searches = calls["exact_mise.optimal_h"]
        out["exact_mise.optimal_h.curve_evals"] = (
            counts["exact_mise.optimal_h.curve_evals"] / searches if searches else 0)
        for name in MEMORY:
            out[f"{name}.peak_mb"] = self.peaks.get(name, 0.0)
        out["exact_mise.benchmark_table.parallelism"] = (
            rows_busy / table_wall if table_wall > 0 else 0.0)
        return out


def _count_per_cycle(total: int, cycles: int):
    """Exact when every cycle does the same work, as the workloads guarantee."""
    return total // cycles if total % cycles == 0 else total / cycles
