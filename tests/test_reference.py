"""The benchmark's recorded references reproduce on the current code.

``perfbench/reference.json`` holds the dropped-set digest of every reference
attack (``attack_stream`` and ``attack_grid``, tiny and full size, 16 variants
x 2 clouds) and the feature checksums of every scan. Only the reference inputs
are generated here, with perfbench's own ``workloads.attack_cloud`` and
``scan_cloud`` and the command lines its plans run, so the check takes seconds
where a benchmark ``prepare`` would write every cloud of every pool. The
full-size scans (100k points) are left to the benchmark itself.
"""

import contextlib
import importlib.util
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from pointdrop import cli

PERFBENCH = Path(__file__).parents[1] / "perfbench"
_spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
workloads = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)  # for its dataclass
_spec.loader.exec_module(workloads)
REFERENCE = json.loads((PERFBENCH / "reference.json").read_text(encoding="utf-8"))
VARIANTS = range(workloads.REF_VARIANTS)


def write(path, values, fmt):
    """``workloads._write``'s bytes (np.savetxt), through a handle opened as UTF-8."""
    with open(path, "w", encoding="utf-8") as handle:
        np.savetxt(handle, values, fmt=fmt)


def run(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0, argv
    return out.getvalue()


@pytest.mark.parametrize("size", ["tiny", "full"])
@pytest.mark.parametrize("workload", ["attack_stream", "attack_grid"])
def test_attack_digests_reproduce(workload, size, tmp_path):
    n = workloads.SIZES[size]["cloud_n"]
    digests = {}
    for variant in VARIANTS:
        for index in range(workloads.REF_CLOUDS):
            points, fmt = workloads.attack_cloud(workload, variant, index, n)
            cloud = tmp_path / f"cloud_{variant}_{index}.xyz"
            write(cloud, points, fmt)
            argv = workloads._attack_argv(cloud, workloads.PRESET, tmp_path / "retained.xyz")
            dropped = workloads.parse_dropped(run(argv))
            digests.setdefault(str(variant), []).append(workloads.dropped_digest(dropped))
    assert digests == REFERENCE[workload][size]


@pytest.mark.parametrize("variant", VARIANTS)
def test_tiny_scan_checksums_hold(variant, tmp_path):
    scan, csv = tmp_path / "scan.xyz", tmp_path / "scan.csv"
    write(scan, workloads.scan_cloud(variant, workloads.SIZES["tiny"]["scan_n"]), "%.6f")
    run(["features", str(scan), "--normalize", "--output", str(csv)])
    with open(csv, encoding="utf-8") as handle:
        assert handle.readline() == ",".join(f"f{j}" for j in range(1, 15)) + "\n"
        got = workloads.csv_checksums(np.loadtxt(handle, delimiter=",", ndmin=2))
    recorded = REFERENCE["scan_100k"]["tiny"][str(variant)]
    tolerance = workloads.CSV_RTOL * np.asarray(recorded["abs"])
    for key in ("sum", "abs"):
        assert np.all(np.abs(np.asarray(got[key]) - recorded[key]) <= tolerance), key
