"""Acceptance gate: the eight release criteria, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; each function asserts its criterion so the suite fails loudly when a
bound is missed.
"""

import time

import numpy as np
from scipy.sparse.csgraph import connected_components

import oracles
from pointdrop import (
    CoefficientSet,
    PointCloud,
    TrainingSample,
    build_knn_graph,
    drop_attack,
    extract_features,
    fit_mlr,
    get_preset,
    lpf_solve,
    normalize_scores,
    overlap,
    predict_scores,
    random_drop,
    rank_top_n,
    select_top_targets,
    synthetic_score_oracle,
)
from test_presets import EXPECTED_ROWS


def _check(num, label, ok, details):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {num}: {label}: {details}")
    assert ok, f"criterion {num} ({label}): {details}"


def box_cloud(rng, n=1024):
    """Random rotated box surface, centered, max norm 1.

    Flat faces meeting at sharp edges give the feature columns realistic
    contrast (edge points carry high local variation), unlike an isotropic
    Gaussian blob.
    """
    dims = rng.uniform(0.3, 1.0, size=3)
    areas = np.repeat([dims[1] * dims[2], dims[0] * dims[2], dims[0] * dims[1]], 2)
    face = rng.choice(6, size=n, p=areas / areas.sum())
    pts = rng.uniform(-0.5, 0.5, size=(n, 3)) * dims
    for axis in range(3):
        pts[face == 2 * axis, axis] = dims[axis] / 2
        pts[face == 2 * axis + 1, axis] = -dims[axis] / 2
    q = rng.normal(size=4)
    q /= np.linalg.norm(q)
    w, x, y, z = q
    rot = np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )
    pts = pts @ rot.T
    pts -= pts.mean(axis=0)
    pts /= np.linalg.norm(pts, axis=1).max()
    return PointCloud(pts)


def test_01_feature_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(100)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(8, 17))
        k = int(rng.integers(1, 6))
        pts = rng.normal(size=(n, 3))
        feats = extract_features(PointCloud(pts), k=k, gamma=0.5, ball_radius=0.4)
        expected = oracles.naive_features(pts, k, gamma=0.5, r=0.4)
        worst = max(worst, float(np.abs(feats.values - expected).max()))
    elapsed = time.perf_counter() - start
    _check(
        1,
        "feature oracle equivalence",
        worst <= 1e-9 and elapsed < 5.0,
        f"max |impl - oracle| = {worst:.3e} over 20 clouds (n <= 16), {elapsed:.2f} s",
    )


def test_02_graph_operator_properties():
    rng = np.random.default_rng(200)
    worst_row = 0.0
    min_quad = np.inf
    decomposition_exact = True
    for _ in range(100):
        g = build_knn_graph(PointCloud(rng.normal(size=(64, 3))), k=10)
        rows = np.asarray(g.transition.sum(axis=1)).ravel()
        worst_row = max(worst_row, float(np.abs(rows - 1.0).max()))
        x = rng.normal(size=(64, 100))
        quad = np.einsum("ij,ij->j", x, g.laplacian @ x)
        min_quad = min(min_quad, float(quad.min()))
        dense = np.diag(g.degrees) - g.adjacency.toarray()
        decomposition_exact = decomposition_exact and np.array_equal(
            g.laplacian.toarray(), dense
        )
    _check(
        2,
        "graph operator properties",
        worst_row <= 1e-12 and min_quad >= -1e-10 and decomposition_exact,
        f"max |row sum - 1| = {worst_row:.3e}, min x^T L x = {min_quad:.3e}, "
        f"L = D - W exact: {decomposition_exact} (100 clouds, n = 64, k = 10)",
    )


def test_03_lpf_limits():
    # Connected 10-point graph: a perturbed arc whose k = 3 neighborhoods
    # chain adjacent samples together.
    theta = np.linspace(0.0, 2.0, 10)
    pts = np.column_stack([np.cos(theta), np.sin(theta), 0.1 * np.sin(2.0 * theta)])
    cloud = PointCloud(pts)
    g = build_knn_graph(cloud, k=3)
    connected = connected_components(g.adjacency, directed=False)[0] == 1

    identity_err = float(np.abs(lpf_solve(g, cloud, 1e-15) - pts).max())
    huge = lpf_solve(g, cloud, 1e9)
    spread = float((huge.max(axis=0) - huge.min(axis=0)).max())
    mid = lpf_solve(g, cloud, 0.5)
    residual = mid + 0.5 * (g.laplacian @ mid) - pts
    rel = float(
        (np.linalg.norm(residual, axis=0) / np.linalg.norm(pts, axis=0)).max()
    )
    _check(
        3,
        "low-pass filter limits",
        connected and identity_err <= 1e-10 and spread <= 1e-3 and rel <= 1e-8,
        f"gamma=1e-15 identity error = {identity_err:.3e}, gamma=1e9 spread = "
        f"{spread:.3e}, gamma=0.5 relative residual = {rel:.3e}, connected = {connected}",
    )


_PLANTED = np.array(
    [1.5, -2.0, 0.75, 0.0, 3.0, 0.0, -1.25, 0.5, 0.0, 2.5, -0.3, 0.0, 1.0, -1.75]
)
_PLANTED_ZEROS = np.flatnonzero(_PLANTED == 0.0)


def _planted_samples(seed, m, noise_sd=0.01):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(m, 14))
    y = x @ _PLANTED + rng.normal(0.0, noise_sd, m)
    return [TrainingSample(x[i], y[i]) for i in range(m)]


def test_04_regression_recovery():
    start = time.perf_counter()

    fit = fit_mlr(_planted_samples(42, 10000))
    coef_err = float(np.abs(fit.coefficients - _PLANTED).max())
    r2 = fit.r_squared

    insignificant_counts = np.zeros(_PLANTED_ZEROS.size)
    for seed in range(100):
        trial = fit_mlr(_planted_samples(seed, 10000))
        insignificant_counts += ~trial.significant[_PLANTED_ZEROS]
    min_count = int(insignificant_counts.min())

    small = _planted_samples(7, 30, noise_sd=0.1)
    small_fit = fit_mlr(small)
    ref = oracles.ols_oracle(
        np.array([s.features for s in small]), np.array([s.target for s in small])
    )
    oracle_err = max(
        float(np.abs(small_fit.t_stats - ref["t_stats"]).max()),
        float(np.abs(small_fit.p_values - ref["p_values"]).max()),
    )

    elapsed = time.perf_counter() - start
    _check(
        4,
        "regression recovery",
        coef_err <= 1e-2
        and r2 >= 0.99
        and min_count >= 90
        and oracle_err <= 1e-9
        and elapsed < 30.0,
        f"max |coef - planted| = {coef_err:.3e}, R^2 = {r2:.6f}, planted zeros "
        f"insignificant in >= {min_count}/100 trials, max t/p oracle diff = "
        f"{oracle_err:.3e}, {elapsed:.1f} s",
    )


def test_05_preset_fidelity():
    verbatim = all(
        np.array_equal(get_preset(name).coefficients, np.asarray(row, dtype=np.float64))
        for name, row in EXPECTED_ROWS.items()
    )

    # The published worked example expands the pointnet-N150 row term by term.
    def displayed_equation(f):
        return (
            -42.295 * f[:, 0] + 0.007 * f[:, 1] + 0.006 * f[:, 2] - 0.007 * f[:, 3]
            + 4.904 * f[:, 8] + 0.623 * f[:, 9] + 0.010 * f[:, 10]
            - 3.055 * f[:, 11] + 11.470 * f[:, 12] + 0.160 * f[:, 13]
        )

    preset = get_preset("pointnet-N150")
    rng = np.random.default_rng(500)
    worst = 0.0
    for _ in range(3):
        feats = extract_features(PointCloud(rng.normal(size=(64, 3))), k=10)
        predicted = predict_scores(feats, preset).values
        worst = max(worst, float(np.abs(predicted - displayed_equation(feats.values)).max()))
    _check(
        5,
        "preset fidelity",
        verbatim and worst <= 1e-12,
        f"12 published rows verbatim: {verbatim}, max |prediction - expanded "
        f"pointnet-N150 equation| = {worst:.3e}",
    )


def test_06_end_to_end_overlap():
    start = time.perf_counter()
    rng = np.random.default_rng(123)
    clouds = [box_cloud(rng) for _ in range(100)]

    planted_values = np.zeros(14)
    planted_values[[0, 7, 9, 11, 12]] = [40.0, 6.0, 0.3, 12.0, 8.0]
    planted = CoefficientSet(planted_values, planted_values != 0.0, "planted")

    samples = []
    eval_pairs = []
    for ci, cloud in enumerate(clouds):
        feats = extract_features(cloud)
        clean = predict_scores(feats, planted)
        noise_sd = 0.05 * float(clean.values.std())
        raw = synthetic_score_oracle(feats, planted, noise_sd, seed=1000 + ci)
        if ci < 80:
            samples.extend(select_top_targets(normalize_scores(raw), feats, 200))
        else:
            eval_pairs.append((feats, raw))

    fitted = fit_mlr(samples).to_coefficient_set()
    overlaps = [
        overlap(rank_top_n(predict_scores(feats, fitted), 200), rank_top_n(raw, 200))
        for feats, raw in eval_pairs
    ]
    mean_overlap = float(np.mean(overlaps))
    baseline = 100.0 * 200 / 1024
    elapsed = time.perf_counter() - start
    _check(
        6,
        "end-to-end overlap",
        mean_overlap >= 50.0 and mean_overlap >= baseline + 20.0 and elapsed < 120.0,
        f"mean top-200 overlap = {mean_overlap:.2f}% (min {min(overlaps):.1f}%) over "
        f"20 held-out clouds vs random baseline {baseline:.1f}%, {elapsed:.1f} s",
    )


def test_07_attack_pipeline():
    rng = np.random.default_rng(700)
    cloud = box_cloud(rng)
    preset = get_preset("avg-N100")
    result = drop_attack(cloud, preset, 100)
    drop100_ok = result.retained_cloud.n == 924 and result.n_dropped == 100

    scaled = CoefficientSet(2.5 * preset.coefficients, preset.significant, "scaled")
    rescale_ok = np.array_equal(
        result.dropped_indices, drop_attack(cloud, scaled, 100).dropped_indices
    )

    small = PointCloud(rng.normal(size=(10, 3)))
    hits = np.zeros(10)
    for seed in range(1000):
        hits[random_drop(small, 1, seed=seed).dropped_indices[0]] += 1
    max_dev = float(np.abs(hits / 1000.0 - 0.1).max())
    _check(
        7,
        "attack pipeline",
        drop100_ok and rescale_ok and max_dev <= 0.03,
        f"Drop100 retains 924 of 1024: {drop100_ok}, dropped set invariant under "
        f"positive rescale: {rescale_ok}, random-drop max |freq - 0.1| = {max_dev:.3f}",
    )


def test_08_extraction_speed():
    cloud = box_cloud(np.random.default_rng(800))
    extract_features(cloud, k=10)  # warm caches before timing
    best = np.inf
    for _ in range(3):
        start = time.perf_counter()
        extract_features(cloud, k=10)
        best = min(best, time.perf_counter() - start)
    _check(
        8,
        "extraction speed",
        best < 0.100,
        f"best of 3 runs for one 1024-point cloud (k = 10): {best * 1000.0:.1f} ms",
    )
