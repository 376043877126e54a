"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py

1. Regenerating every reference at this commit reproduces the stored files
   exactly (refs.py --check).
2. Two traced runs of each workload at one seed give identical counts
   (*.calls, *.evals, *.pair_evals, *.bytes_computed, curve_evals,
   inner_calls, cli.run.failed), and every run reports correct output.
"""

from __future__ import annotations

import subprocess
import sys

from report import HERE, ROOT, SPEC, run_workload

SEED = 3
COUNT_SUFFIXES = (".calls", ".evals", ".pair_evals", ".bytes_computed", ".curve_evals",
                  ".inner_calls", ".failed")


def main() -> int:
    problems = []
    proc = subprocess.run([sys.executable, str(HERE / "refs.py"), "--check"], cwd=ROOT)
    if proc.returncode != 0:
        problems.append("references do not regenerate identically")

    for workload in (w["name"] for w in SPEC["workloads"]):
        runs = [run_workload(workload, SEED, 1, trace) for trace in (0, 1, 1)]
        counts = [{k: v["value"] for k, v in run["metrics"].items() if k.endswith(COUNT_SUFFIXES)}
                  for run in runs[1:]]
        changed = sorted(k for k in counts[0] if counts[0][k] != counts[1].get(k))
        if changed:
            problems.append(f"{workload}: counts differ between traced runs: {changed}")
        if not all(run["correct"] for run in runs):
            problems.append(f"{workload}: a run reported incorrect output")
        print(f"{workload}: {len(counts[0])} counts compared, {len(changed)} differ")

    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest passed" if not problems else "selftest failed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
