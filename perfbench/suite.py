"""Run every workload, untraced and traced, and assert the result contract.

Usage, from the root of a checkout:

    python3 perfbench/suite.py --tiny      # smoke run, about a minute
    python3 perfbench/suite.py             # full size, run_seconds per run

For each workload it prints the run's readable summary (every metric by
name and unit, the error rate and the machine facts) and asserts that the
result line carries exactly the metrics BENCHMARK.json names, with their
units and finite values, and that no operation failed.
"""

from __future__ import annotations

import argparse
import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tiny", action="store_true", help="smoke-test input sizes, 1 s runs")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    spec = json.loads(Path("BENCHMARK.json").read_text())
    seconds = 1 if args.tiny else spec["run_seconds"]
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                    "--seed", str(args.seed), "--seconds", str(seconds), "--trace", str(trace)]
            done = subprocess.run(argv + (["--tiny"] if args.tiny else []),
                                  capture_output=True, text=True, timeout=300)
            lines = done.stdout.strip().splitlines()
            print("\n".join(lines[:-1]), flush=True)
            where = f"{workload} trace {trace}"
            if done.returncode != 0 or not lines:
                problems.append(f"{where}: exit code {done.returncode}\n{done.stderr}")
                continue
            result = json.loads(lines[-1])
            metrics = result["metrics"]
            if {k: v["unit"] for k, v in metrics.items()} != expected[trace]:
                problems.append(f"{where}: metrics or units differ from BENCHMARK.json")
            if not all(math.isfinite(v["value"]) for v in metrics.values()):
                problems.append(f"{where}: a metric is not a finite number")
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                problems.append(f"{where}: {result['failed']} of {result['attempted']} ops failed")
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    print("suite:", "FAIL" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
