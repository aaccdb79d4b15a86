"""Seeded inputs, command plans and output checks for the benchmark workloads.

Every input is a pure function of (workload, seed, size). The program under
test only ever sees the generated files; the planted truth and the reference
digests stay on this side.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.spatial import cKDTree

WORKLOADS = ("fit_corpus", "attack_stream", "scan_100k", "attack_grid")

TOP_N = 100
BALL_RADIUS = 0.1  # the CLI default, used for the planted f11 term
PRESET = "avg-N100"

# Reference inputs are drawn from seed % REF_VARIANTS, so every seed meets
# inputs whose dropped sets / feature checksums are recorded in
# reference.json. The first REF_CLOUDS clouds of each attack stream are such
# inputs; the whole scan is one.
REF_VARIANTS = 16
REF_CLOUDS = 2

# Planted score model for fit_corpus, 1-based feature index -> coefficient:
# far from the centroid (f10) and in a sparse ball (f11) scores high. Both
# terms are computed here independently of the package.
PLANTED = {10: 2.0, 11: -0.02}
NOISE_FRACTION = 0.05  # noise sd as a share of the clean score's sd

# Feature CSV checksum tolerance: |sum - ref| <= CSV_RTOL * ref_abs_sum per
# column. Loose enough for a solver swap at rtol 1e-12, tight enough that any
# change of definition shows.
CSV_RTOL = 1e-9

# stream_min_ops: attack_stream's p95 needs ten samples beyond it.
SIZES = {
    "full": dict(cloud_n=1024, corpus=64, heldout=4, pool=512, grid_pool=32, scan_n=100_000,
                 stream_min_ops=200),
    "tiny": dict(cloud_n=512, corpus=8, heldout=2, pool=8, grid_pool=4, scan_n=4096,
                 stream_min_ops=1),
}

SCAN_BOX = (1.0, 0.7, 0.45)

_COMMON_SPANS = (
    "cli.main",
    "io.parse_xyz",
    "features.extract_features",
    "graph.build_knn_graph",
    "graph.operators",
    "features.lpf_solve",
    "features.ball_count",
)
_ATTACK_SPANS = _COMMON_SPANS + (
    "io.write_xyz",
    "attack.drop_attack",
    "attack.predict_scores",
    "attack.rank_top_n",
    "presets.get_preset",
)
EXPECTED_SPANS = {
    "fit_corpus": _COMMON_SPANS
    + (
        "io.parse_scores",
        "attack.normalize_scores",
        "regression.select_top_targets",
        "regression.fit_mlr",
    ),
    "attack_stream": _ATTACK_SPANS,
    "attack_grid": _ATTACK_SPANS,
    "scan_100k": _COMMON_SPANS + ("features.features_to_csv",),
}


@dataclass
class Plan:
    """What the worker runs and what the checks need to judge it.

    ``ops`` are argv templates cycled by the timed loop; ``{op}`` in an
    argument becomes the operation number, so every operation writes its own
    output file. ``checks`` run once, untimed, after the loop.
    """

    ops: list
    warmup: list
    checks: list = field(default_factory=list)
    min_ops: int = 1
    clouds_per_op: int = 1
    points_per_op: int = 1
    state: dict = field(default_factory=dict)


def _rng(workload: str, *key: int) -> np.random.Generator:
    return np.random.default_rng([WORKLOADS.index(workload), *key])


def box_surface(rng: np.random.Generator, n: int, dims=None) -> np.ndarray:
    """n points on the surface of a randomly rotated box, centred, max norm 1.

    The box proportions are random unless ``dims`` fixes them.
    """
    dims = rng.uniform(0.3, 1.0, size=3) if dims is None else np.asarray(dims, dtype=float)
    areas = np.repeat([dims[1] * dims[2], dims[0] * dims[2], dims[0] * dims[1]], 2)
    face = rng.choice(6, size=n, p=areas / areas.sum())
    pts = rng.uniform(-0.5, 0.5, size=(n, 3)) * dims
    for axis in range(3):
        pts[face == 2 * axis, axis] = dims[axis] / 2
        pts[face == 2 * axis + 1, axis] = -dims[axis] / 2
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    pts = pts @ q.T
    pts -= pts.mean(axis=0)
    return pts / np.linalg.norm(pts, axis=1).max()


def planted_scores(points: np.ndarray) -> np.ndarray:
    """Clean planted score: 2 * centroid distance - 0.02 * closed-ball count."""
    f10 = np.linalg.norm(points - points.mean(axis=0), axis=1)
    f11 = cKDTree(points).query_ball_point(points, BALL_RADIUS, return_length=True)
    return PLANTED[10] * f10 + PLANTED[11] * f11


def top_indices(values: np.ndarray, n_top: int) -> np.ndarray:
    """Indices of the n_top largest values, ties by ascending index."""
    return np.lexsort((np.arange(values.size), -values))[:n_top]


def _write(path: Path, values: np.ndarray, fmt: str) -> None:
    np.savetxt(path, values, fmt=fmt)


def read_numbers(path: Path, columns: int) -> np.ndarray:
    """Parse whitespace-separated decimals with Python's correctly rounded float()."""
    values = np.fromiter(map(float, Path(path).read_text().split()), dtype=np.float64)
    return values.reshape(-1, columns)


def dropped_digest(dropped) -> str:
    """Order-free digest of a dropped index set."""
    text = ",".join(str(i) for i in sorted(int(i) for i in dropped))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def parse_dropped(report: str) -> list[int] | None:
    """Dropped indices from an attack report, or None if the report is malformed."""
    lines = report.splitlines()
    try:
        start = lines.index("dropped index, predicted score") + 1
        return [int(line.split(",")[0]) for line in lines[start:]]
    except ValueError:
        return None


def csv_checksums(values: np.ndarray) -> dict:
    return {"sum": values.sum(axis=0).tolist(), "abs": np.abs(values).sum(axis=0).tolist()}


def read_feature_csv(path: Path) -> np.ndarray | None:
    """The n x 14 feature block of a features CSV, or None if the header is wrong."""
    with open(path) as handle:
        header = handle.readline().strip()
    if header != ",".join(f"f{j}" for j in range(1, 15)):
        return None
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


# ---------------------------------------------------------------- inputs


def attack_cloud(workload: str, seed: int, index: int, n: int) -> tuple[np.ndarray, str]:
    """Cloud ``index`` of an attack stream and the text format it is written in.

    The first REF_CLOUDS clouds come from the reference variant of the seed.
    attack_grid snaps coordinates to a 0.01 lattice and writes them with two
    decimals, as fixed-precision exports do: distances tie and a few points
    coincide.
    """
    if index < REF_CLOUDS:
        rng = _rng(workload, 1, seed % REF_VARIANTS, index)
    else:
        rng = _rng(workload, 0, seed, index)
    points = box_surface(rng, n)
    if workload == "attack_grid":
        return np.round(points, 2), "%.2f"
    return points, "%.17g"


def scan_cloud(seed: int, n: int) -> np.ndarray:
    """A noisy box scan in scanner units (metres, off-origin), millimetre text.

    The box proportions are fixed, so ball occupancy, and with it the cost of
    a scan, does not depend on the seed; the seed moves every point.
    """
    rng = _rng("scan_100k", 1, seed % REF_VARIANTS)
    points = box_surface(rng, n, dims=SCAN_BOX) * 5.0 + np.array([12.0, -3.0, 1.5])
    return points + rng.normal(scale=0.002, size=points.shape)


# ---------------------------------------------------------------- plans


def prepare(workload: str, seed: int, size: str, work: Path) -> Plan:
    """Write the workload's inputs under ``work`` and return its plan."""
    sz = SIZES[size]
    out = work / "out"
    out.mkdir(parents=True)
    if workload == "fit_corpus":
        return _prepare_fit(seed, sz, work, out)
    if workload == "scan_100k":
        return _prepare_scan(seed, sz, work, out)
    return _prepare_attack(workload, seed, sz, work, out)


def _attack_argv(cloud: Path, coefficients: str, output: Path) -> list:
    return ["attack", str(cloud), "--preset", coefficients, "--top-n", str(TOP_N),
            "--output", str(output)]


def _prepare_fit(seed, sz, work, out) -> Plan:
    n = sz["cloud_n"]

    def corpus(name, count, key):
        clouds, scores = work / name / "clouds", work / name / "scores"
        clouds.mkdir(parents=True)
        scores.mkdir(parents=True)
        for i in range(count):
            rng = _rng("fit_corpus", key, seed, i)
            points = box_surface(rng, n)
            clean = planted_scores(points)
            raw = clean + rng.normal(0.0, NOISE_FRACTION * clean.std(), n)
            _write(clouds / f"c{i:04d}.xyz", points, "%.17g")
            _write(scores / f"c{i:04d}.txt", raw, "%.17g")
        return [str(clouds), str(scores)]

    def fit_argv(dirs, output):
        return ["fit", *dirs, "--top-n", str(TOP_N), "--output", str(output)]

    warm = fit_argv(corpus("warm", 3, 2), out / "warm.json")
    timed = fit_argv(corpus("corpus", sz["corpus"], 0), out / "fit_{op}.json")
    held, truths = [], []
    for j in range(sz["heldout"]):
        points = box_surface(_rng("fit_corpus", 1, seed, j), n)
        path = work / f"heldout_{j}.xyz"
        _write(path, points, "%.17g")
        held.append(_attack_argv(path, str(out / "fit_0.json"), out / f"heldout_{j}.xyz"))
        truths.append(top_indices(planted_scores(points), TOP_N))
    return Plan(
        ops=[timed],
        warmup=[warm],
        checks=held,
        clouds_per_op=sz["corpus"],
        points_per_op=sz["corpus"] * n,
        state={"n": n, "truths": truths},
    )


def _prepare_attack(workload, seed, sz, work, out) -> Plan:
    n = sz["cloud_n"]
    pool = sz["grid_pool"] if workload == "attack_grid" else sz["pool"]
    paths = []
    for i in range(pool + 1):  # cloud `pool` is the warm-up cloud
        points, fmt = attack_cloud(workload, seed, i, n)
        paths.append(work / f"cloud_{i}.xyz")
        _write(paths[-1], points, fmt)
    inputs = paths[:pool]
    return Plan(
        ops=[_attack_argv(path, PRESET, out / "attack_{op}.xyz") for path in inputs],
        warmup=[_attack_argv(paths[pool], PRESET, out / "warm.xyz")],
        min_ops=sz["stream_min_ops"] if workload == "attack_stream" else 1,
        points_per_op=n,
        state={"inputs": inputs, "variant": str(seed % REF_VARIANTS)},
    )


def _prepare_scan(seed, sz, work, out) -> Plan:
    scan = work / "scan.xyz"
    _write(scan, scan_cloud(seed, sz["scan_n"]), "%.6f")
    warm = work / "warm.xyz"
    _write(warm, box_surface(_rng("scan_100k", 2, seed), 2048) * 5.0, "%.6f")

    def argv(cloud, output):
        return ["features", str(cloud), "--normalize", "--output", str(output)]

    return Plan(
        ops=[argv(scan, out / "scan_{op}.csv")],
        warmup=[argv(warm, out / "warm.csv")],
        points_per_op=sz["scan_n"],
        state={"n": sz["scan_n"], "variant": str(seed % REF_VARIANTS)},
    )


# ---------------------------------------------------------------- checks


def check(workload: str, plan: Plan, ops: list, checks: list, reference: dict) -> list[bool]:
    """Judge every operation (timed ops, then check ops); True means correct."""
    if workload == "fit_corpus":
        return _check_fit(plan, ops, checks)
    judge = _scan_ok if workload == "scan_100k" else _attack_ok
    verdicts = []
    for op in ops:
        try:
            verdicts.append(op["rc"] == 0 and judge(plan, op, reference))
        except (OSError, ValueError):  # missing or unreadable output
            verdicts.append(False)
    return verdicts


def _output(op: dict) -> Path:
    return Path(op["argv"][op["argv"].index("--output") + 1])


def _check_fit(plan, ops, checks) -> list[bool]:
    n, truths = plan.state["n"], plan.state["truths"]

    def document(op):
        try:
            return _output(op).read_bytes() if op["rc"] == 0 else None
        except OSError:
            return None

    first = document(ops[0]) or b""
    try:
        significant = {e["index"]: e["significant"] for e in json.loads(first)["coefficients"]}
        document_ok = sorted(significant) == list(range(1, 15)) and all(
            significant[j] is True for j in PLANTED
        )
    except (ValueError, KeyError, TypeError):
        document_ok = False

    held = []
    for op in checks:
        dropped = parse_dropped(op["stdout"]) if op["rc"] == 0 else None
        held.append(dropped if dropped is not None and len(set(dropped)) == TOP_N else None)
    overlaps = [
        100.0 * len(set(d) & set(t.tolist())) / TOP_N
        for d, t in zip(held, truths)
        if d is not None
    ]
    # Acceptance-gate bound (tests/test_acceptance.py criterion 6): at least
    # 50% and at least 20 points above the random-drop baseline.
    bound = max(50.0, 100.0 * TOP_N / n + 20.0)
    overlap_ok = len(overlaps) == len(truths) and float(np.mean(overlaps)) >= bound
    plan.state["heldout_overlap_percent"] = float(np.mean(overlaps)) if overlaps else 0.0
    fits_ok = [document_ok and overlap_ok and document(op) == first for op in ops]
    return fits_ok + [d is not None for d in held]


def _attack_ok(plan, op, reference) -> bool:
    dropped = parse_dropped(op["stdout"])
    index = op["template"]
    original = read_numbers(plan.state["inputs"][index], 3)
    n = len(original)
    if dropped is None or len(dropped) != TOP_N or len(set(dropped)) != TOP_N:
        return False
    if min(dropped) < 0 or max(dropped) >= n:
        return False
    retained = read_numbers(_output(op), 3)
    expected = np.delete(original, dropped, axis=0)
    if retained.shape != (n - TOP_N, 3) or retained.tobytes() != expected.tobytes():
        return False
    if index < REF_CLOUDS:
        return dropped_digest(dropped) == reference[plan.state["variant"]][index]
    return True


def _scan_ok(plan, op, reference) -> bool:
    values = read_feature_csv(_output(op))
    if values is None or values.shape != (plan.state["n"], 14):
        return False
    counts = values[:, 10]
    if np.any(counts != np.round(counts)) or counts.min() < 1:
        return False
    ref = reference[plan.state["variant"]]
    got = csv_checksums(values)
    tol = CSV_RTOL * np.asarray(ref["abs"])
    return bool(
        np.all(np.abs(np.asarray(got["sum"]) - ref["sum"]) <= tol)
        and np.all(np.abs(np.asarray(got["abs"]) - ref["abs"]) <= tol)
    )
