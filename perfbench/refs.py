"""Reference outputs of every task, and the check against them.

CLI workloads store the SHA-256 of the bytes each request wrote (the CLI
promises byte-identical output for the same argv and seed).  large_n_grid
stores its arrays; an element matches when it is within 5e-7 of the
reference value, i.e. agrees to 6 significant digits, with values below
1e-6 of the array's peak compared at that scale.

    python3 perfbench/refs.py           # regenerate perfbench/refs/
    python3 perfbench/refs.py --check   # regenerate in memory, compare, exit 1 on change
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import shutil
import sys
from pathlib import Path

import numpy as np

import workloads

REF_DIR = Path(__file__).resolve().parent / "refs"
ARRAY_WORKLOAD = "large_n_grid"
RTOL = 5e-7
FLOOR = 1e-6


def set_key(seed: int) -> int:
    """The input set a seed selects."""
    return seed % workloads.INPUT_SETS


def _digest(out: bytes) -> str:
    return hashlib.sha256(out).hexdigest()


def load(workload: str, key: int) -> dict:
    """Expected outputs of one input set, keyed by task id."""
    if workload == ARRAY_WORKLOAD:
        prefix = f"set{key}/"
        with np.load(REF_DIR / f"{workload}.npz") as npz:
            expected: dict[str, dict[str, np.ndarray]] = {}
            for name in npz.files:
                if name.startswith(prefix):
                    task, array = name[len(prefix):].split("/")
                    expected.setdefault(task, {})[array] = npz[name]
        return expected
    with open(REF_DIR / f"{workload}.json") as fh:
        return json.load(fh)[str(key)]


def compare(expected, out) -> tuple[bool, float]:
    """(matches, largest deviation relative to each array's peak)."""
    if isinstance(expected, str):
        return _digest(out) == expected, 0.0
    if set(expected) != set(out):
        return False, float("inf")
    ok, worst = True, 0.0
    for name, ref in expected.items():
        got = np.asarray(out[name], dtype=float)
        if got.shape != ref.shape:
            return False, float("inf")
        finite = np.isfinite(ref)
        if not np.array_equal(np.isfinite(got), finite) or \
                not np.array_equal(got[~finite], ref[~finite]):
            return False, float("inf")
        r, g = ref[finite], got[finite]
        if r.size == 0:
            continue
        peak = float(np.max(np.abs(r)))
        err = np.abs(g - r)
        ok &= bool(np.all(err <= RTOL * np.maximum(np.abs(r), FLOOR * peak)))
        if peak > 0:
            worst = max(worst, float(err.max()) / peak)
    return ok, worst


def _store(out):
    return _digest(out) if isinstance(out, bytes) else {k: np.asarray(v, dtype=float)
                                                        for k, v in out.items()}


def generate(ss, workdir: Path) -> dict:
    """Run every task of every input set once; {workload: {set: {task: output}}}."""
    result: dict = {}
    for workload, build in workloads.WORKLOADS.items():
        result[workload] = {}
        for key in range(workloads.INPUT_SETS):
            shutil.rmtree(workdir, ignore_errors=True)
            workdir.mkdir(parents=True)
            tasks, _ = build(ss, key, str(workdir))
            result[workload][key] = {t.id: _store(t.run()) for t in tasks}
            print(f"{workload} set {key}: {len(tasks)} tasks", file=sys.stderr)
    shutil.rmtree(workdir, ignore_errors=True)
    return result


def _npz_arrays(sets_out: dict) -> dict[str, np.ndarray]:
    return {f"set{key}/{task}/{name}": arr
            for key, tasks in sets_out.items()
            for task, arrays in tasks.items()
            for name, arr in arrays.items()}


def write(result: dict) -> None:
    REF_DIR.mkdir(exist_ok=True)
    for workload, sets_out in result.items():
        if workload == ARRAY_WORKLOAD:
            buf = io.BytesIO()
            np.savez_compressed(buf, **_npz_arrays(sets_out))
            (REF_DIR / f"{workload}.npz").write_bytes(buf.getvalue())
        else:
            doc = {str(k): v for k, v in sets_out.items()}
            (REF_DIR / f"{workload}.json").write_text(
                json.dumps(doc, indent=1, sort_keys=True) + "\n")


def differences(result: dict) -> list[str]:
    """Every stored reference that the fresh result does not reproduce exactly."""
    diffs = []
    for workload, sets_out in result.items():
        if workload == ARRAY_WORKLOAD:
            fresh = _npz_arrays(sets_out)
            with np.load(REF_DIR / f"{workload}.npz") as npz:
                stored = {name: npz[name] for name in npz.files}
            for name in sorted(set(fresh) | set(stored)):
                if name not in fresh or name not in stored or \
                        not np.array_equal(fresh[name], stored[name], equal_nan=True):
                    diffs.append(f"{workload}:{name}")
        else:
            for key, tasks in sets_out.items():
                stored = load(workload, key)
                for task in sorted(set(tasks) | set(stored)):
                    if tasks.get(task) != stored.get(task):
                        diffs.append(f"{workload}:set{key}/{task}")
    return diffs


def main() -> int:
    import run  # the same source checks and import as a benchmark run

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--check", action="store_true",
                   help="compare a fresh regeneration with the stored references")
    args = p.parse_args()
    ss = run.import_semistart()
    result = generate(ss, run.WORK_ROOT / f"refs-{os.getpid()}")
    if not args.check:
        write(result)
        print(f"references written to {REF_DIR}")
        return 0
    diffs = differences(result)
    for d in diffs:
        print(f"differs: {d}")
    print("references reproduce exactly" if not diffs else f"{len(diffs)} references differ")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
