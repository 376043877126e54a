"""semistart benchmark: one workload, closed loop, one task in flight.

    python3 perfbench/run.py --workload large_n_grid --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; semistart is imported from its src/.  The
untraced run (--trace 0) reports the end-to-end metrics; the traced run
(--trace 1) reports the per-layer metrics of BENCHMARK.json.  The last line
of stdout is the result object; the line before it is the run metadata.
Results and spans are also written to .perfbench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import NoReturn

import numpy as np

import refs
import tracing
import workloads

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"
OUT_DIR = ROOT / ".perfbench_out"
SETUP_REPEATS = 5
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
                "import semistart, semistart.cli; print(time.perf_counter() - t)")


def fail(message: str) -> NoReturn:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_semistart():
    """Import semistart (and its cli) from the checkout's src/."""
    if os.environ.get("SEMISTART_THREADS") is not None:
        fail("SEMISTART_THREADS is set; the benchmark measures the default pool size")
    if not (SRC / "semistart" / "__init__.py").is_file():
        fail(f"no semistart sources under {SRC}")
    sys.path.insert(0, str(SRC))
    ss = importlib.import_module("semistart")
    importlib.import_module("semistart.cli")
    if Path(ss.__file__).resolve().parent != SRC / "semistart":
        fail(f"semistart was imported from {ss.__file__}, not from {SRC}")
    return ss


def fresh_import_seconds() -> float:
    """Time to import semistart and its cli in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                          capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        fail(f"importing semistart in a fresh interpreter failed:\n{proc.stderr}")
    return float(proc.stdout)


@dataclass
class Phase:
    """Task times, CPU and failures of the tasks run in one timed phase."""

    times: list[float] = field(default_factory=list)
    cpu: list[float] = field(default_factory=list)
    failed: int = 0
    max_rel_err: float = 0.0
    cycles: int = 0


def _cpu_seconds() -> float:
    r = resource.getrusage(resource.RUSAGE_SELF)
    return r.ru_utime + r.ru_stime


def run_task(task: workloads.Task, expected: dict, phase: Phase) -> None:
    """Time one task; its output check runs after the clock stops."""
    c0 = _cpu_seconds()
    t0 = perf_counter()
    try:
        out = task.run()
    except Exception as exc:  # a failing task is counted, and the loop goes on
        out = exc
    t1 = perf_counter()
    phase.cpu.append(_cpu_seconds() - c0)
    phase.times.append(t1 - t0)
    if isinstance(out, Exception):
        print(f"task {task.id} failed: {out!r}", file=sys.stderr)
        phase.failed += 1
        return
    ok, err = refs.compare(expected[task.id], out)
    phase.max_rel_err = max(phase.max_rel_err, err)
    if not ok:
        print(f"task {task.id}: output differs from the reference", file=sys.stderr)
        phase.failed += 1


def run_cycles(tasks, expected, seconds: float) -> Phase:
    """Whole passes over the task list until `seconds` of wall time have passed."""
    phase = Phase()
    start = perf_counter()
    while True:
        for task in tasks:
            run_task(task, expected, phase)
        phase.cycles += 1
        if perf_counter() - start >= seconds:
            return phase


def set_up(ss, workload: str, key: int, workdir: Path):
    """Inputs and their files, references, one warm-up task: (tasks, expected, ok)."""
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    tasks, warm_up = workloads.WORKLOADS[workload](ss, key, str(workdir))
    expected = refs.load(workload, key)
    phase = Phase()
    run_task(warm_up, expected, phase)
    return tasks, expected, phase.failed == 0


def _git_sha() -> str | None:
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def _source_sha() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "semistart").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _blas_threads() -> dict[str, int]:
    """Thread count of every OpenBLAS loaded into this process."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return {}
    found = {}
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "scipy_openblas_get_num_threads64_"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                found[Path(path).name] = int(fn())
                break
    return found


def _blas_version(module) -> str | None:
    try:
        return module.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version")
    except (TypeError, KeyError, AttributeError):
        return None


def metadata(workload: str, seed: int, key: int, trace: int) -> dict:
    import scipy

    return {
        "workload": workload, "seed": seed, "input_set": key, "trace": trace,
        "git_sha": _git_sha(), "source_sha256": _source_sha(),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": {"numpy": _blas_version(np), "scipy": _blas_version(scipy)},
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "blas_threads": _blas_threads(),
        "SEMISTART_THREADS": "unset",
        "platform": platform.platform(),
    }


def nearest_rank(values: list[float], q: float) -> float:
    """The ceil(q*N)-th smallest value."""
    ordered = sorted(values)
    return ordered[max(math.ceil(q * len(ordered)), 1) - 1]


def _e2e(setup_s: float, phase: Phase) -> dict[str, float]:
    """End-to-end metrics from medians over the run's cycles.

    Every cycle runs the same task list, so each task's time is taken as its
    median over the cycles, and the percentiles are nearest-rank picks among
    those per-task medians: the same task of the list whatever the number
    of cycles, with one slow cycle damped.
    """
    size = len(phase.times) // phase.cycles
    cycles = [slice(k * size, (k + 1) * size) for k in range(phase.cycles)]
    per_task = [statistics.median(phase.times[j::size]) for j in range(size)]
    return {
        "setup_s": setup_s,
        "tasks_per_s": size / statistics.median(sum(phase.times[c]) for c in cycles),
        "task_p50_ms": 1e3 * nearest_rank(per_task, 0.5),
        "task_p90_ms": 1e3 * nearest_rank(per_task, 0.9),
        "cpu_ms_per_task": 1e3 * statistics.median(sum(phase.cpu[c]) for c in cycles) / size,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def traced_phase(tasks, expected, seconds: float):
    """One untraced cycle as the baseline, traced cycles, then one memory cycle.

    Returns (traced phase, per-layer metrics, tracer, tasks attempted, tasks failed).
    """
    baseline = run_cycles(tasks, expected, 0)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        phase = run_cycles(tasks, expected, seconds)
        tracer.memory_mode = True
        memory = run_cycles(tasks, expected, 0)
    finally:
        tracer.uninstall()
    layers = tracer.layer_metrics(phase.cycles)
    layers["estimator.max_rel_err"] = phase.max_rel_err
    traced_cycle = sum(phase.times) / phase.cycles
    untraced_cycle = sum(baseline.times)
    layers["tracing.overhead_pct"] = 100.0 * (traced_cycle - untraced_cycle) / untraced_cycle
    runs = (baseline, phase, memory)
    return (phase, layers, tracer, sum(len(r.times) for r in runs),
            sum(r.failed for r in runs))


def main() -> int:
    p = argparse.ArgumentParser(description="semistart benchmark (one workload per run)")
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    ss = import_semistart()
    key = refs.set_key(args.seed)
    workdir = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    try:
        # each set-up: a fresh interpreter's import, then inputs, references
        # and the warm-up task in this process
        setup_times, setup_ok = [], True
        for _ in range(SETUP_REPEATS):
            fresh_import_s = fresh_import_seconds()
            t0 = perf_counter()
            tasks, expected, ok = set_up(ss, args.workload, key, workdir)
            setup_times.append(fresh_import_s + perf_counter() - t0)
            setup_ok &= ok
        setup_s = statistics.median(setup_times)

        if args.trace:
            phase, values, tracer, attempted, failed = traced_phase(tasks, expected,
                                                                   args.seconds)
        else:
            phase = run_cycles(tasks, expected, args.seconds)
            values = _e2e(setup_s, phase)
            attempted, failed = len(phase.times), phase.failed
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:  # another run is using it
            pass

    meta = metadata(args.workload, args.seed, key, args.trace)
    meta.update({"setup_repeats_s": setup_times, "setup_ok": setup_ok, "cycles": phase.cycles,
                 "tasks_per_cycle": len(tasks), "error_rate": failed / attempted})
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]
    mismatch = {m["name"] for m in declared} ^ set(values)
    if mismatch:
        fail(f"metrics differ from BENCHMARK.json: {sorted(mismatch)}")
    result = {"correct": failed == 0 and setup_ok, "attempted": attempted, "failed": failed,
              "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                          for m in declared}}
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"result-{stem}.json").write_text(
        json.dumps({"meta": meta, **result}, indent=1) + "\n")
    if args.trace:
        tracer.write_spans(str(OUT_DIR / f"spans-{stem}.jsonl.gz"))
    print("meta " + json.dumps(meta, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
