"""Run every workload once, untraced, and print each end-to-end metric with its unit.

    python3 perfbench/report.py

Each workload runs in its own process (peak_rss_mb is per process), at seed
1 for BENCHMARK.json's run_seconds.  Exits 1 if any workload reports an
output that differs from its reference.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_workload(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One run of run.py in its own process; its result object.  Exits on failure."""
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", str(trace)], cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} trace={trace} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    bad = 0
    print(f"{'workload':<20} {'metric':<16} {'value':>14}  unit")
    for workload in (w["name"] for w in SPEC["workloads"]):
        result = run_workload(workload, 1, SPEC["run_seconds"], 0)
        for name, m in result["metrics"].items():
            print(f"{workload:<20} {name:<16} {m['value']:>14.6g}  {m['unit']}")
        error_rate = result["failed"] / result["attempted"]
        print(f"{workload:<20} {'error_rate':<16} {error_rate:>14.6g}  "
              f"failed/attempted ({result['failed']}/{result['attempted']})")
        bad += not result["correct"]
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
