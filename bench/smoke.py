"""Smoke test of the benchmark itself.

Usage: python3 bench/smoke.py

Runs every workload at its tiny shape (a 6x6 city, 20 trips per day), once
untraced and once traced, and asserts that each run prints every metric
named in BENCHMARK.json with its unit, and that the output checks pass.
Takes well under a minute.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    failures = []
    for workload in spec["workloads"]:
        for trace, metric_spec in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            argv = [
                sys.executable, str(BENCH / "run.py"), "--workload", workload["name"],
                "--seed", "1", "--seconds", "1", "--trace", str(trace), "--smoke",
            ]
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=170)
            label = f"{workload['name']} --trace {trace}"
            if proc.returncode != 0:
                failures.append(f"{label}: exit {proc.returncode}\n{proc.stderr}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            expected = {m["name"]: m["unit"] for m in metric_spec}
            printed = {name: m["unit"] for name, m in result["metrics"].items()}
            if printed != expected:
                failures.append(f"{label}: metrics {printed} != {expected}")
            if not all(isinstance(m["value"], (int, float)) for m in result["metrics"].values()):
                failures.append(f"{label}: a metric value is not a number")
            if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
                failures.append(f"{label}: checks failed\n{proc.stdout}")
            print(f"{label}: ok, {result['attempted']} invocations")
    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
