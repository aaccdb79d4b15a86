"""The fourteen per-point features against hand values and the naive oracle."""

import math
import sys

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import splu

import oracles
from pointdrop import features
from pointdrop import (
    FEATURE_NAMES,
    FeatureMatrix,
    PointCloud,
    ball_count,
    build_knn_graph,
    drop_attack,
    extract_features,
    features_to_csv,
    get_preset,
    lpf_solve,
    normalize_cloud,
)
from pointdrop.io import _to_units
from test_acceptance import box_cloud

PATH3 = PointCloud([[0, 0, 0], [1, 0, 0], [2, 0, 0]])


def random_cloud(seed, n=12):
    return PointCloud(np.random.default_rng(seed).normal(size=(n, 3)))


def columns(cloud, names, **kwargs):
    """The named feature columns of ``extract_features(cloud, **kwargs)``, side by side."""
    fm = extract_features(cloud, **kwargs)
    return np.column_stack([fm.column(name) for name in names])


PBAR = ("f2", "f3", "f4")
PTILDE = ("f5", "f6", "f7")


class TestCoordinateFeatures:
    def test_path_weighted_average(self):
        pbar = columns(PATH3, PBAR, k=1, sigma=1.0)
        np.testing.assert_allclose(pbar[1], [1.0, 0.0, 0.0], atol=1e-12)

    def test_single_neighbor_copies_position(self):
        cloud = PointCloud([[0, 0, 0], [1, 1, 1], [10, 10, 10], [11, 11, 11]])
        pbar = columns(cloud, PBAR, k=1, sigma=1.0)
        np.testing.assert_allclose(pbar[0], [1, 1, 1], atol=1e-12)

    def test_average_translates_with_cloud(self):
        cloud = random_cloud(0)
        shifted = PointCloud(cloud.points + [5.0, -2.0, 1.0])
        np.testing.assert_allclose(
            columns(shifted, PBAR, k=4, sigma=1.3),
            columns(cloud, PBAR, k=4, sigma=1.3) + [5.0, -2.0, 1.0],
            atol=1e-10,
        )

    def test_average_inside_neighbor_bounding_box(self):
        cloud = random_cloud(1, n=30)
        w = build_knn_graph(cloud, k=5).adjacency
        pbar = columns(cloud, PBAR, k=5)
        for i in range(cloud.n):
            nbrs = w.indices[w.indptr[i]:w.indptr[i + 1]]
            lo = cloud.points[nbrs].min(axis=0) - 1e-12
            hi = cloud.points[nbrs].max(axis=0) + 1e-12
            assert np.all(pbar[i] >= lo) and np.all(pbar[i] <= hi)

    def test_path_second_difference(self):
        ptilde = columns(PATH3, PTILDE, k=1, sigma=1.0)
        np.testing.assert_allclose(ptilde[0], [-math.exp(-1), 0.0, 0.0], atol=1e-12)

    def test_second_difference_translation_invariant(self):
        cloud = random_cloud(2)
        shifted = PointCloud(cloud.points + [3.0, 3.0, -4.0])
        np.testing.assert_allclose(
            columns(shifted, PTILDE, k=4, sigma=0.9),
            columns(cloud, PTILDE, k=4, sigma=0.9),
            atol=1e-10,
        )

    def test_constant_coordinate_column_zeroed(self):
        pts = np.random.default_rng(3).normal(size=(10, 3))
        pts[:, 2] = 4.0
        f7 = extract_features(PointCloud(pts), k=3).column("f7")
        assert np.abs(f7).max() < 1e-12


class TestVariation:
    def test_zero_at_weighted_average(self):
        cloud = PointCloud([[0, 0, 0], [1, 0, 0], [-1, 0, 0]])
        v = extract_features(cloud, k=2, sigma=1.0).column("f1")
        # Point 0 has symmetric equal-weight neighbors, so pbar_0 = p_0.
        assert v[0] == pytest.approx(0.0, abs=1e-12)

    def test_single_neighbor_distance(self):
        cloud = PointCloud([[0, 0, 0], [0, 0, 2.5], [40, 0, 0], [40, 0, 2.5]])
        v = extract_features(cloud, k=1, sigma=1.0).column("f1")
        assert v[0] == pytest.approx(2.5, rel=1e-12)

    def test_matches_oracle(self):
        pts = np.random.default_rng(4).normal(size=(8, 3))
        ref = oracles.naive_features(pts, k=3)
        v = extract_features(PointCloud(pts), k=3).column("f1")
        np.testing.assert_allclose(v, ref[:, 0], atol=1e-10)

    def test_smoothness_constant_signal(self):
        # f8, f9 (and f13, f14) apply A and L to the stacked (v, h) block.
        g = build_knn_graph(random_cloud(5), k=4)
        block = np.full((g.n, 2), 2.0)
        np.testing.assert_allclose(g.transition @ block, 2.0, atol=1e-12)
        np.testing.assert_allclose(g.laplacian @ block, 0.0, atol=1e-12)

    def test_smoothness_matches_oracle(self):
        pts = np.random.default_rng(6).normal(size=(8, 3))
        ref = oracles.naive_features(pts, k=3)
        fm = extract_features(PointCloud(pts), k=3)
        np.testing.assert_allclose(fm.column("f8"), ref[:, 7], atol=1e-10)
        np.testing.assert_allclose(fm.column("f9"), ref[:, 8], atol=1e-10)


class TestLpf:
    def test_tiny_gamma_identity(self):
        cloud = random_cloud(7)
        g = build_knn_graph(cloud, k=4)
        q = lpf_solve(g, cloud, 1e-15)
        assert np.abs(q - cloud.points).max() < 1e-10

    def test_huge_gamma_consensus(self):
        cloud = random_cloud(8, n=10)
        g = build_knn_graph(cloud, k=3)
        q = lpf_solve(g, cloud, 1e9)
        spread = q.max(axis=0) - q.min(axis=0)
        assert spread.max() <= 1e-3
        # 1^T L = 0 for the symmetric Laplacian, so 1^T (I + gamma L) q = 1^T p
        # at any gamma: the consensus value is the plain column mean of p.
        np.testing.assert_allclose(q.mean(axis=0), cloud.points.mean(axis=0), atol=1e-3)

    def test_matches_dense_solve(self):
        pts = np.random.default_rng(9).normal(size=(8, 3))
        cloud = PointCloud(pts)
        g = build_knn_graph(cloud, k=3)
        q = lpf_solve(g, cloud, 0.5)
        dense = np.linalg.solve(np.eye(8) + 0.5 * g.laplacian.toarray(), pts)
        np.testing.assert_allclose(q, dense, atol=1e-9)

    def test_residual_contract_at_default_gamma(self):
        cloud = random_cloud(10, n=50)
        g = build_knn_graph(cloud, k=6)
        q = lpf_solve(g, cloud, 0.5)
        system = np.eye(50) + 0.5 * g.laplacian.toarray()
        for c in range(3):
            resid = np.linalg.norm(system @ q[:, c] - cloud.points[:, c])
            assert resid <= 1e-8 * np.linalg.norm(cloud.points[:, c])

    def test_gamma_validation(self):
        cloud = random_cloud(7)
        g = build_knn_graph(cloud, k=4)
        for gamma in (0.0, -0.5, float("nan"), float("inf"), 1e308):
            with pytest.raises(ValueError, match="gamma must be positive"):
                lpf_solve(g, cloud, gamma)
        with pytest.raises(ValueError, match="gamma must be positive"):
            extract_features(cloud, k=4, gamma=0.0)

    def test_distance_features_tiny_gamma(self):
        fm = extract_features(random_cloud(11), k=4, gamma=1e-15)
        assert fm.column("f12").max() <= 1e-8
        assert np.abs(fm.column("f13")).max() <= 1e-8
        assert np.abs(fm.column("f14")).max() <= 1e-8

    def test_distance_features_nonnegative(self):
        cloud = random_cloud(12)
        for gamma in (0.1, 0.5, 2.0, 100.0):
            fm = extract_features(cloud, k=4, gamma=gamma)
            assert fm.column("f12").min() >= 0.0
            assert fm.column("f13").min() >= 0.0

    def test_distance_features_match_oracle(self):
        pts = np.random.default_rng(13).normal(size=(8, 3))
        ref = oracles.naive_features(pts, k=3, gamma=0.5)
        got = columns(PointCloud(pts), ("f12", "f13", "f14"), k=3, gamma=0.5)
        np.testing.assert_allclose(got, ref[:, 11:14], atol=1e-9)


@pytest.fixture
def lu_calls(monkeypatch):
    """Count the sparse LU factorizations lpf_solve makes."""
    calls = []

    def counting_splu(matrix):
        calls.append(matrix.shape)
        return splu(matrix)

    monkeypatch.setattr(features, "splu", counting_splu)
    return calls


def _lu_reference(graph, cloud, gamma):
    system = (sp.identity(graph.n) + gamma * graph.laplacian).tocsc()
    return splu(system).solve(np.array(cloud.points))


class TestLpfSolvers:
    @pytest.mark.parametrize("n", [64, 1024])
    @pytest.mark.parametrize("gamma", [0.1, 0.5, 2.0])
    def test_cg_matches_lu(self, lu_calls, n, gamma):
        cloud = box_cloud(np.random.default_rng(n), n=n)
        g = build_knn_graph(cloud, k=10)
        q = lpf_solve(g, cloud, gamma)
        assert lu_calls == []
        assert np.abs(q - _lu_reference(g, cloud, gamma)).max() <= 1e-10

    def test_huge_gamma_takes_lu(self, lu_calls):
        cloud = box_cloud(np.random.default_rng(30), n=64)
        g = build_knn_graph(cloud, k=10)
        q = lpf_solve(g, cloud, 1e9)
        assert lu_calls == [(64, 64)]
        np.testing.assert_array_equal(q, _lu_reference(g, cloud, 1e9))

    def test_iteration_cap_falls_back_to_lu(self, lu_calls, monkeypatch):
        # No column meets this tolerance before its recurrence underflows
        # (0/0 = NaN keeps it running), so CG runs into its iteration cap.
        monkeypatch.setattr(features, "_PCG_RTOL", 1e-300)
        cloud = box_cloud(np.random.default_rng(31), n=64)
        g = build_knn_graph(cloud, k=10)
        with np.errstate(invalid="ignore"):
            q = lpf_solve(g, cloud, 0.5)
        assert lu_calls == [(64, 64)]
        np.testing.assert_array_equal(q, _lu_reference(g, cloud, 0.5))

    def test_breakdown_returns_none(self):
        # An indefinite system gives d^T A d = -8 on the first step: CG hands
        # the solve to LU at once, with no division by a non-positive number
        # (a RuntimeWarning would fail the test).
        system = sp.csr_matrix(np.array([[1.0, 2.0], [2.0, 1.0]]))
        assert features._block_pcg(system, np.array([[1.0, 0.0], [-1.0, 0.0]]), 10) is None

    def test_planar_cloud_zero_column(self, lu_calls):
        pts = np.random.default_rng(32).uniform(-1.0, 1.0, size=(200, 3))
        pts[:, 2] = 0.0
        cloud = PointCloud(pts)
        g = build_knn_graph(cloud, k=8)
        q = lpf_solve(g, cloud, 0.5)
        assert lu_calls == []
        assert np.all(q[:, 2] == 0.0)
        assert np.abs(q - _lu_reference(g, cloud, 0.5)).max() <= 1e-10
        assert np.all(np.isfinite(extract_features(cloud, k=8).values))

    def test_disconnected_graph(self, lu_calls):
        rng = np.random.default_rng(33)
        pts = np.vstack([rng.normal(size=(12, 3)), rng.normal(size=(12, 3)) + 100.0])
        cloud = PointCloud(pts)
        g = build_knn_graph(cloud, k=3)
        assert connected_components(g.adjacency, directed=False)[0] == 2
        q = lpf_solve(g, cloud, 0.5)
        assert lu_calls == []
        dense = np.linalg.solve(np.eye(24) + 0.5 * g.laplacian.toarray(), pts)
        np.testing.assert_allclose(q, dense, atol=1e-10)
        ref = oracles.naive_features(pts, k=3, gamma=0.5)
        assert np.abs(extract_features(cloud, k=3).values - ref).max() < 1e-9

    def test_two_points(self, lu_calls):
        cloud = PointCloud([[0.0, 0.0, 0.0], [1.0, 2.0, 0.0]])
        g = build_knn_graph(cloud, k=1, sigma=1.0)
        q = lpf_solve(g, cloud, 0.5)
        assert lu_calls == []
        dense = np.linalg.solve(np.eye(2) + 0.5 * g.laplacian.toarray(), cloud.points)
        np.testing.assert_allclose(q, dense, atol=1e-12)
        assert np.all(q[:, 2] == 0.0)

    def test_nan_solution_fails_residual_check(self, monkeypatch):
        monkeypatch.setattr(
            features, "_block_pcg", lambda system, rhs, max_iter: np.full_like(rhs, np.nan)
        )
        cloud = box_cloud(np.random.default_rng(35), n=64)
        g = build_knn_graph(cloud, k=10)
        with pytest.raises(ValueError, match="low-pass solve failed"):
            lpf_solve(g, cloud, 0.5)

    def test_extreme_coordinate_scales(self, lu_calls):
        base = np.random.default_rng(34).normal(size=(64, 3))
        for scale in (1e-300, 1e-160, 1e150):
            cloud = PointCloud(base * scale)
            g = build_knn_graph(cloud, k=6)
            q = lpf_solve(g, cloud, 0.5)
            assert np.abs(q - _lu_reference(g, cloud, 0.5)).max() <= 1e-10 * scale
        assert lu_calls == []

    def test_wrong_solution_fails_residual_check_at_tiny_scale(self, monkeypatch):
        # At 1e-165 every squared residual entry underflows to 0; the check
        # must still see that q = 2p does not solve the system.
        monkeypatch.setattr(features, "_block_pcg", lambda system, rhs, max_iter: 2 * rhs)
        cloud = PointCloud(np.random.default_rng(34).normal(size=(64, 3)) * 1e-165)
        g = build_knn_graph(cloud, k=6)
        with pytest.raises(ValueError, match="low-pass solve failed"):
            lpf_solve(g, cloud, 0.5)

    @pytest.mark.parametrize("gamma", [0.5, 1e9])  # the CG path and the LU path
    def test_graph_and_cloud_sizes_must_match(self, lu_calls, gamma):
        g = build_knn_graph(box_cloud(np.random.default_rng(36), n=64), k=10)
        cloud = box_cloud(np.random.default_rng(37), n=63)
        with pytest.raises(ValueError, match="graph has 64 nodes but the cloud has 63 points"):
            lpf_solve(g, cloud, gamma)
        assert lu_calls == []


class TestScalarFeatures:
    def test_centroid_point_zero(self):
        cloud = PointCloud([[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 0]])
        d = extract_features(cloud, k=2).column("f10")
        assert d[4] == pytest.approx(0.0, abs=1e-15)
        np.testing.assert_allclose(d[:4], 1.0, atol=1e-15)

    def test_centroid_translation_invariant(self):
        cloud = random_cloud(14)
        shifted = PointCloud(cloud.points + [7.0, 8.0, 9.0])
        np.testing.assert_allclose(
            extract_features(shifted, k=4).column("f10"),
            extract_features(cloud, k=4).column("f10"),
            atol=1e-10,
        )

    def test_ball_all_within(self):
        cloud = PointCloud([[0, 0, 0], [0.03, 0, 0], [0, 0.04, 0]])
        np.testing.assert_array_equal(ball_count(cloud, 0.1), [3, 3, 3])

    def test_ball_isolated_counts_self(self):
        cloud = PointCloud([[0, 0, 0], [10, 0, 0], [0, 10, 0]])
        np.testing.assert_array_equal(ball_count(cloud, 0.1), [1, 1, 1])

    def test_ball_boundary_closed(self):
        cloud = PointCloud([[0, 0, 0], [0.1, 0, 0], [5, 5, 5]])
        counts = ball_count(cloud, 0.1)
        assert counts[0] == 2
        assert counts[1] == 2

    def test_ball_radius_validation(self):
        with pytest.raises(ValueError, match="radius"):
            ball_count(random_cloud(15), 0.0)


class TestExtract:
    def test_matches_full_oracle(self):
        rng = np.random.default_rng(16)
        for n, k in [(8, 3), (12, 4), (16, 5)]:
            pts = rng.normal(size=(n, 3))
            got = extract_features(PointCloud(pts), k=k, gamma=0.5, ball_radius=0.4)
            ref = oracles.naive_features(pts, k=k, gamma=0.5, r=0.4)
            assert np.abs(got.values - ref).max() < 1e-9

    def test_column_names_and_count_column(self):
        assert FEATURE_NAMES == tuple(f"f{j}" for j in range(1, 15))
        fm = extract_features(random_cloud(17, n=20), k=4)
        counts = fm.column("f11")
        np.testing.assert_array_equal(counts, np.round(counts))
        assert counts.min() >= 1

    def test_deterministic_bitwise(self):
        cloud = random_cloud(18, n=30)
        a = extract_features(cloud, k=5)
        b = extract_features(cloud, k=5)
        np.testing.assert_array_equal(a.values, b.values)

    def test_memory_layout_does_not_change_results(self):
        # A (3, n) array's transpose is Fortran-ordered; the cloud stores a
        # C-ordered copy, so its centroid (f10) is summed in one order and the
        # features and drop sets keep every bit.
        rng = np.random.default_rng(23)
        preset = get_preset("avg-N100")
        for _ in range(3):
            xyz = np.ascontiguousarray(box_cloud(rng, n=1024).points.T)  # (3, n)
            assert xyz.T.flags.f_contiguous
            c_order, f_order = PointCloud(np.ascontiguousarray(xyz.T)), PointCloud(xyz.T)
            assert f_order.points.flags.c_contiguous
            a, b = extract_features(c_order).values, extract_features(f_order).values
            assert a.tobytes() == b.tobytes()
            np.testing.assert_array_equal(
                drop_attack(c_order, preset, 100).dropped_indices,
                drop_attack(f_order, preset, 100).dropped_indices,
            )

    def test_translation_invariances(self):
        cloud = random_cloud(19, n=25)
        shifted = PointCloud(cloud.points + [4.0, -6.0, 0.5])
        fa = extract_features(cloud, k=5, sigma=1.1, ball_radius=0.5)
        fb = extract_features(shifted, k=5, sigma=1.1, ball_radius=0.5)
        translated = (1, 2, 3)  # f2..f4 move with the cloud
        for col in range(14):
            if col in translated:
                continue
            assert np.abs(fb.values[:, col] - fa.values[:, col]).max() < 1e-10, f"f{col + 1}"
        np.testing.assert_allclose(
            fb.values[:, 1:4], fa.values[:, 1:4] + [4.0, -6.0, 0.5], atol=1e-10
        )

    @pytest.mark.parametrize("seed", range(3))
    def test_permutation_and_rigid_motion(self, seed):
        # Relabelling the points permutes the rows. Under a rotation R and a
        # shift t, f2..f4 move as points (R p + t), f5..f7 as vectors (R x),
        # and f1, f8..f14 stay put. Float clouds keep every kNN and ball
        # membership clear of ties, so only rounding differs.
        rng = np.random.default_rng(300 + seed)
        cloud = box_cloud(rng, n=300)
        base = extract_features(cloud, k=8).values
        perm = rng.permutation(cloud.n)
        permuted = extract_features(PointCloud(cloud.points[perm]), k=8).values
        np.testing.assert_allclose(permuted, base[perm], rtol=0, atol=1e-9)
        rot, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        shift = rng.normal(size=3)
        moved = extract_features(PointCloud(cloud.points @ rot.T + shift), k=8).values
        scalar = [0, *range(7, 14)]
        np.testing.assert_allclose(moved[:, scalar], base[:, scalar], rtol=0, atol=1e-9)
        np.testing.assert_array_equal(moved[:, 10], base[:, 10])
        np.testing.assert_allclose(moved[:, 1:4], base[:, 1:4] @ rot.T + shift, rtol=0, atol=1e-9)
        np.testing.assert_allclose(moved[:, 4:7], base[:, 4:7] @ rot.T, rtol=0, atol=1e-9)

    def test_laplacian_columns_sum_to_zero(self):
        fm = extract_features(random_cloud(20, n=40), k=6)
        scale = np.abs(fm.values).max()
        for name in ("f5", "f6", "f7", "f9", "f14"):
            assert abs(fm.column(name).sum()) < 1e-9 * max(scale, 1.0), name

    def test_mean_residual_monotone_in_gamma(self):
        cloud = random_cloud(21, n=40)
        means = [
            extract_features(cloud, k=5, gamma=g).column("f12").mean()
            for g in (0.1, 0.5, 2.0)
        ]
        assert means[0] <= means[1] <= means[2]

    def test_invariant_validation(self):
        good = extract_features(random_cloud(22, n=10), k=3).values.copy()
        bad = good.copy()
        bad[0, 0] = -0.5
        with pytest.raises(ValueError, match="f1"):
            FeatureMatrix(bad)
        bad = good.copy()
        bad[0, 10] = 2.5
        with pytest.raises(ValueError, match="f11"):
            FeatureMatrix(bad)
        bad = good.copy()
        bad[0, 5] = np.inf
        with pytest.raises(ValueError, match="finite"):
            FeatureMatrix(bad)
        with pytest.raises(ValueError, match=r"must be n x 14, got shape \(10, 13\)"):
            FeatureMatrix(good[:, :13])


class TestPowerOfTwoScales:
    # Every length is taken in the cloud's power-of-two units, so a cloud
    # and radius scaled by 2^e give the length columns scaled by 2^e bit for
    # bit, at scales where squares in the cloud's own units underflow or
    # overflow.
    @pytest.mark.parametrize("e", [-1000, -570, 540, 1000])
    def test_features_scale_exactly(self, e):
        pts = np.random.default_rng(40).normal(size=(1024, 3))
        scaled = np.ldexp(pts, e)
        assert np.array_equal(np.ldexp(scaled, -e), pts)  # the scaled cloud is exact
        unit = extract_features(PointCloud(pts), ball_radius=0.5).values
        got = extract_features(PointCloud(scaled), ball_radius=np.ldexp(0.5, e)).values
        lengths = [c for c in range(14) if c != 10]
        np.testing.assert_array_equal(got[:, lengths], np.ldexp(unit[:, lengths], e))
        np.testing.assert_array_equal(got[:, 10], unit[:, 10])
        assert unit[:, 10].min() < unit[:, 10].max()  # the counts vary

    def test_ball_count_at_large_scale(self):
        pts = np.random.default_rng(41).normal(size=(1024, 3))
        unit = ball_count(PointCloud(pts), 0.5)
        np.testing.assert_array_equal(
            ball_count(PointCloud(np.ldexp(pts, 540)), np.ldexp(0.5, 540)), unit
        )
        assert 1 < np.median(unit) < 1024


def _graph_bytes(g):
    return (g.n, g.sigma, g.degrees.tobytes()) + tuple(
        part.tobytes() for part in (g.adjacency.data, g.adjacency.indices, g.adjacency.indptr)
    )


class TestSharedUnits:
    # A cloud's power-of-two units are taken once, cached read-only on the
    # cloud, and read by every stage.
    def test_extract_features_scales_the_cloud_once(self, monkeypatch):
        whole = []

        def counting(x, axis=None, out=None):
            if axis is None and np.shape(x)[1:] == (3,):
                whole.append(np.shape(x))
            return _to_units(x, axis=axis, out=out)

        # Every module attribute that holds the function, where its callers look it up.
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "pointdrop"]
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is _to_units:
                    monkeypatch.setattr(module, key, counting)
        cloud = box_cloud(np.random.default_rng(50), n=256)
        extract_features(cloud)
        assert whole == [(256, 3)]
        extract_features(cloud, k=6, ball_radius=0.2)
        assert whole == [(256, 3)]

    def test_units_are_read_only(self):
        units, exponent = random_cloud(51)._units
        assert type(exponent) is int
        with pytest.raises(ValueError, match="read-only"):
            units[0] = 0.0

    def test_normalize_cloud_leaves_units(self):
        cloud = PointCloud(np.ldexp(np.random.default_rng(52).normal(size=(64, 3)), 700))
        units, exponent = cloud._units
        before = units.tobytes()
        normalize_cloud(cloud)
        assert cloud._units[0].tobytes() == before
        assert cloud._units[1] == exponent == 702

    @pytest.mark.parametrize("e", [-1000, 0, 3, 700])
    def test_stages_agree_on_used_and_fresh_clouds(self, e):
        pts = np.ldexp(np.random.default_rng(53).normal(size=(128, 3)), e)
        used = PointCloud(pts)
        normalize_cloud(used)  # takes the units first
        radius = np.ldexp(0.3, e)
        for _ in range(2):
            fresh = PointCloud(pts)
            assert _graph_bytes(build_knn_graph(used, k=8)) == _graph_bytes(
                build_knn_graph(fresh, k=8)
            )
            assert ball_count(used, radius).tobytes() == ball_count(fresh, radius).tobytes()
            fresh = PointCloud(pts)
            assert (
                extract_features(used, ball_radius=radius).values.tobytes()
                == extract_features(fresh, ball_radius=radius).values.tobytes()
            )


class TestCsv:
    def test_header_and_rows(self):
        fm = extract_features(random_cloud(23, n=9), k=3)
        lines = features_to_csv(fm).splitlines()
        assert lines[0] == ",".join(f"f{j}" for j in range(1, 15))
        assert len(lines) == 10
        parsed = np.array([[float(tok) for tok in line.split(",")] for line in lines[1:]])
        np.testing.assert_array_equal(parsed, fm.values)
