"""pointdrop benchmark: one workload, one run, one JSON result line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--tiny]

The run generates its inputs from the seed under a scratch directory inside
the checkout, times the CLI in a fresh worker process (perfbench/worker.py),
checks every output outside the timed region, and prints a readable summary
followed by one JSON line: {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end ones; with --trace 1 they are
the per-layer self times and work counts from a traced run, plus the tracing
overhead and span coverage. --tiny shrinks every input for a smoke run.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 3
WORKER_TIMEOUT_S = 150.0
IMPORT_SNIPPET = (
    "import time; t = time.perf_counter(); import pointdrop.cli; "
    "print(time.perf_counter() - t)"
)
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
END_TO_END_UNITS = {
    "clouds_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p95_ms": "ms",
    "scan_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
# Share of one op's wall time the root span must cover, and the most a
# span's self time may dip below zero from clock rounding.
MIN_COVERAGE = 0.95
SELF_TIME_SLACK_S = 1e-6


def _pin_threads() -> int:
    threads = min(2, len(os.sched_getaffinity(0)))
    for var in THREAD_VARS:
        os.environ[var] = str(threads)
    return threads


def _read_first(path: str, key: str | None = None) -> str:
    try:
        with open(path) as handle:
            for line in handle:
                if key is None:
                    return line.strip()
                if line.startswith(key):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def machine_facts(threads: int) -> dict:
    import numpy
    import scipy

    l3 = "unknown"
    for index in range(8):
        cache = f"/sys/devices/system/cpu/cpu0/cache/index{index}"
        if _read_first(f"{cache}/level") == "3":
            l3 = _read_first(f"{cache}/size")
            break
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _read_first("/proc/cpuinfo", "model name"),
        "l3_cache": l3,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads_pinned": threads,
    }


def setup_seconds(env: dict) -> float:
    """Median cold import time of pointdrop.cli over fresh interpreters."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run(
            [sys.executable, "-c", IMPORT_SNIPPET],
            env=env, capture_output=True, text=True, timeout=60, check=True,
        )
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def run_worker(plan_path: Path, env: dict) -> float:
    """Run the worker to completion; return its peak RSS in MB."""
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), str(plan_path)],
        env=env, stdout=subprocess.DEVNULL,
    )
    deadline = time.monotonic() + WORKER_TIMEOUT_S
    pid = 0
    try:
        while not pid:
            if time.monotonic() > deadline:
                raise SystemExit(f"worker exceeded {WORKER_TIMEOUT_S:.0f} s")
            time.sleep(0.05)
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
    finally:
        if not pid:
            proc.kill()
            os.wait4(proc.pid, 0)
            proc.returncode = -9
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise SystemExit(f"worker exited with code {proc.returncode}")
    return usage.ru_maxrss / 1024.0  # kB on Linux


def end_to_end(plan, ops, setup_s, rss_mb) -> dict:
    import numpy as np

    walls = np.array([op["wall"] for op in ops])
    total = float(walls.sum())
    values = {
        "clouds_per_s": plan.clouds_per_op * len(ops) / total,
        "latency_p50_ms": float(np.median(walls)) * 1e3,
        "latency_p95_ms": float(np.percentile(walls, 95)) * 1e3,
        # Seconds per 100k input points; on scan_100k, the time of one scan.
        "scan_s": total / (plan.points_per_op * len(ops)) * 1e5,
        "setup_s": setup_s,
        "peak_rss_mb": rss_mb,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}


def per_layer(workload, ops, spans) -> dict:
    """Per-op self times and work counts of every traced layer, plus trace health."""
    from workloads import EXPECTED_SPANS
    from worker import TRACED

    traced_ops = {i: op for i, op in enumerate(ops) if op["traced"]}
    durations = [end - start for _, start, end, _, _, _ in spans]
    self_s = list(durations)
    for (_, _, _, parent, _, _), duration in zip(spans, durations):
        if parent is not None:
            self_s[parent] -= duration
    if min(self_s, default=0.0) < -SELF_TIME_SLACK_S:
        raise SystemExit("trace error: a span's children outlast it; spans do not nest")

    per_op_self = {i: 0.0 for i in traced_ops}
    totals: dict = {}
    work: dict = {}
    for (name, _, _, _, op, count), own in zip(spans, self_s):
        per_op_self[op] += own
        totals[name] = totals.get(name, 0.0) + own
        if count is not None:
            work[name] = work.get(name, 0) + count
    missing = [name for name in EXPECTED_SPANS[workload] if name not in totals]
    if missing:
        raise SystemExit(f"trace error: traced names never called: {', '.join(missing)}")
    coverage = [per_op_self[i] / traced_ops[i]["wall"] for i in traced_ops]
    if min(coverage) < MIN_COVERAGE or max(coverage) > 1.0 + 1e-9:
        raise SystemExit(f"trace error: span self times cover {min(coverage):.3f} of an op")

    by_slot: dict = {}
    for op in ops:
        by_slot.setdefault(op["slot"], {})[op["traced"]] = op["wall"]
    ratios = [pair[True] / pair[False] for pair in by_slot.values() if len(pair) == 2]

    count = len(traced_ops)
    metrics = {}
    for name, _, _, work_name, unit, _ in TRACED:
        metrics[f"{name}.self_ms"] = {"value": totals.get(name, 0.0) / count * 1e3, "unit": "ms"}
        if work_name is not None:
            metrics[work_name] = {"value": work.get(name, 0) / count, "unit": unit}
    metrics["trace.overhead_ratio"] = {"value": statistics.median(ratios), "unit": "ratio"}
    metrics["trace.coverage_ratio"] = {"value": statistics.median(coverage), "unit": "ratio"}
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test input sizes")
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "pointdrop" / "cli.py").is_file():
        sys.stderr.write(f"error: no pointdrop sources under {src}; run from a checkout root\n")
        return 2

    threads = _pin_threads()  # before numpy loads, here and in every child
    sys.path.insert(0, str(HERE))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.stderr.write(f"error: unknown workload {args.workload!r}\n")
        return 2
    size = "tiny" if args.tiny else "full"
    reference = json.loads((HERE / "reference.json").read_text())

    scratch_root = root / ".perfbench_work"
    scratch_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch_root))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    env["TMPDIR"] = str(work)
    try:
        facts = machine_facts(threads)
        setup_s = None if args.trace else setup_seconds(env)
        plan = workloads.prepare(args.workload, args.seed, size, work)
        plan_path = work / "plan.json"
        result_path = work / "result.json"
        plan_path.write_text(json.dumps({
            "src": str(src),
            "seconds": args.seconds,
            "trace": args.trace,
            "min_ops": 1 if args.trace else plan.min_ops,
            "ops": plan.ops,
            "warmup": plan.warmup,
            "checks": plan.checks,
            "result": str(result_path),
        }))
        rss_mb = run_worker(plan_path, env)
        result = json.loads(result_path.read_text())
        ops, checks = result["ops"], result["checks"]
        verdicts = workloads.check(
            args.workload, plan, ops, checks, reference.get(args.workload, {}).get(size, {})
        )
        if args.trace:
            metrics = per_layer(args.workload, ops, result["spans"])
        else:
            metrics = end_to_end(plan, ops, setup_s, rss_mb)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # other runs may still be using it
            scratch_root.rmdir()

    attempted, failed = len(verdicts), verdicts.count(False)
    print(f"machine {json.dumps(facts)}")
    print(f"workload {args.workload} seed {args.seed} size {size} trace {args.trace}: "
          f"{len(ops)} timed ops, {len(checks)} check ops, worker import {result['import_s']:.3f} s")
    for name, metric in metrics.items():
        print(f"  {name:<40} {metric['value']:>16.6g} {metric['unit']}")
    print(f"  {'error_rate':<40} {failed / attempted:>16.6g} ratio ({failed} of {attempted} failed)")
    if "heldout_overlap_percent" in plan.state:
        print(f"  held-out top-{workloads.TOP_N} overlap {plan.state['heldout_overlap_percent']:.1f}%")
    for op in ops + checks:
        if op["rc"] != 0:
            sys.stderr.write(f"failed: {' '.join(op['argv'])}\n{op['stderr']}")
            break
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
