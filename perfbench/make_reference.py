"""Record reference.json: dropped-set digests and feature-CSV checksums.

Usage, from the root of a checkout:  python3 perfbench/make_reference.py

Runs the reference inputs of every seed variant through the CLI of the
checkout, at both sizes. Dropped sets must never change, so rerun this only
to add a workload or variant, never to absorb a changed result.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(Path.cwd() / "src"))

import workloads  # noqa: E402
from pointdrop import cli  # noqa: E402


def _run(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        if cli.main(argv) != 0:
            raise SystemExit(f"command failed: {' '.join(argv)}")
    return out.getvalue()


def _record(workload: str, size: str, variant: int, scratch: Path):
    work = Path(tempfile.mkdtemp(dir=scratch))
    plan = workloads.prepare(workload, variant, size, work)
    if workload == "scan_100k":
        argv = [a.replace("{op}", "ref") for a in plan.ops[0]]
        _run(argv)
        values = workloads.read_feature_csv(Path(argv[argv.index("--output") + 1]))
        return workloads.csv_checksums(values)
    digests = []
    for template in plan.ops[: workloads.REF_CLOUDS]:
        report = _run([a.replace("{op}", "ref") for a in template])
        digests.append(workloads.dropped_digest(workloads.parse_dropped(report)))
    return digests


def main() -> int:
    reference = {}
    scratch_root = Path.cwd() / ".perfbench_work"
    scratch_root.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch_root) as scratch:
        for workload in ("attack_stream", "attack_grid", "scan_100k"):
            for size in ("tiny", "full"):
                entries = reference.setdefault(workload, {}).setdefault(size, {})
                for variant in range(workloads.REF_VARIANTS):
                    entries[str(variant)] = _record(workload, size, variant, Path(scratch))
                    print(workload, size, variant, entries[str(variant)], flush=True)
    with contextlib.suppress(OSError):
        scratch_root.rmdir()
    (HERE / "reference.json").write_text(json.dumps(reference, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
