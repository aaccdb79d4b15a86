"""Neighborhood graph construction and its two operators, A and L."""

import contextvars
import inspect
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from pointdrop import graph as graph_module
from pointdrop import (
    NeighborhoodGraph,
    PointCloud,
    ball_count,
    build_knn_graph,
    extract_features,
    lpf_solve,
)
from test_acceptance import box_cloud

PATH3 = PointCloud([[0, 0, 0], [1, 0, 0], [2, 0, 0]])


def random_cloud(seed, n=64):
    return PointCloud(np.random.default_rng(seed).normal(size=(n, 3)))


class TestConstruction:
    def test_collinear_path_weights(self):
        # Node 1 is equidistant from 0 and 2; the tie goes to the lower index,
        # and union symmetrization restores the 1-2 edge selected by node 2.
        g = build_knn_graph(PATH3, k=1, sigma=1.0)
        w = g.adjacency.toarray()
        assert w[0, 1] == pytest.approx(math.exp(-1), abs=1e-12)
        assert w[1, 2] == pytest.approx(math.exp(-1), abs=1e-12)
        assert w[0, 2] == 0.0
        assert g.num_edges == 2

    def test_path_transition_row(self):
        g = build_knn_graph(PATH3, k=1, sigma=1.0)
        a = g.transition.toarray()
        assert a[1, 0] == pytest.approx(0.5, abs=1e-12)
        assert a[1, 2] == pytest.approx(0.5, abs=1e-12)

    def test_tie_break_lowest_index(self):
        # Point 0 sits exactly between 1 and 2; with k=1 it must pick index 1.
        # Points 3 and 4 are closer companions of 1 and 2, so neither tie
        # candidate picks 0 back and union symmetrization adds no 0-2 edge.
        cloud = PointCloud(
            [[0, 0, 0], [1, 0, 0], [-1, 0, 0], [1.05, 0, 0], [-1.05, 0, 0]]
        )
        g = build_knn_graph(cloud, k=1, sigma=1.0)
        w = g.adjacency.toarray()
        assert w[0, 1] > 0
        assert w[0, 2] == 0.0

    def test_symmetric_zero_diagonal(self):
        g = build_knn_graph(random_cloud(0), k=5)
        w = g.adjacency.toarray()
        np.testing.assert_array_equal(w, w.T)
        assert np.all(np.diag(w) == 0)

    def test_weights_in_unit_interval(self):
        g = build_knn_graph(random_cloud(1), k=5)
        assert g.adjacency.data.min() > 0.0
        assert g.adjacency.data.max() <= 1.0

    def test_degrees_match_row_sums(self):
        g = build_knn_graph(random_cloud(2), k=5)
        np.testing.assert_allclose(
            g.degrees, np.asarray(g.adjacency.sum(axis=1)).ravel(), rtol=0, atol=0
        )
        assert g.degrees.min() > 0

    def test_laplacian_is_degree_minus_adjacency(self):
        g = build_knn_graph(random_cloud(3), k=5)
        np.testing.assert_array_equal(
            g.laplacian.toarray(), np.diag(g.degrees) - g.adjacency.toarray()
        )

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(4)
        for n, k in [(8, 1), (12, 3), (16, 5)]:
            pts = rng.normal(size=(n, 3))
            g = build_knn_graph(PointCloud(pts), k=k)
            w_ref, deg_ref, a_ref, l_ref, sigma_ref = oracles.naive_graph(pts, k)
            assert g.sigma == pytest.approx(sigma_ref, rel=1e-12)
            np.testing.assert_allclose(g.adjacency.toarray(), w_ref, atol=1e-12)
            np.testing.assert_allclose(g.transition.toarray(), a_ref, atol=1e-12)
            np.testing.assert_allclose(g.laplacian.toarray(), l_ref, atol=1e-12)

    def test_auto_sigma_is_mean_edge_length(self):
        cloud = PointCloud([[0, 0, 0], [1, 0, 0], [3, 0, 0]])
        g = build_knn_graph(cloud, k=1)
        # Union edges: 0-1 (length 1) and 1-2 (length 2).
        assert g.sigma == pytest.approx(1.5, rel=1e-15)

    def test_duplicate_points_weight_one(self):
        cloud = PointCloud([[1, 2, 3], [1, 2, 3], [9, 9, 9]])
        for sigma in (2.0, 5e-324):
            g = build_knn_graph(cloud, k=1, sigma=sigma)
            assert g.adjacency.toarray()[0, 1] == 1.0

    def test_all_points_coincide(self):
        cloud = PointCloud(np.ones((5, 3)))
        g = build_knn_graph(cloud, k=2)
        assert g.sigma == 1.0
        assert g.adjacency.data.min() == 1.0

    def test_k_out_of_range(self):
        cloud = random_cloud(5, n=10)
        with pytest.raises(ValueError, match="k must"):
            build_knn_graph(cloud, k=0)
        with pytest.raises(ValueError, match="k must"):
            build_knn_graph(cloud, k=10)

    def test_bad_sigma(self):
        with pytest.raises(ValueError, match="sigma"):
            build_knn_graph(random_cloud(6), k=3, sigma=0.0)

    def test_deterministic(self):
        cloud = random_cloud(7)
        g1 = build_knn_graph(cloud, k=10)
        g2 = build_knn_graph(cloud, k=10)
        assert (g1.adjacency != g2.adjacency).nnz == 0
        np.testing.assert_array_equal(g1.degrees, g2.degrees)

    def test_grid_with_many_ties(self):
        # Integer grid: every interior point has 4+ equidistant candidates, so
        # the selection must stay deterministic and index-ordered.
        axes = np.arange(4)
        pts = np.array([[x, y, z] for x in axes for y in axes for z in axes], dtype=float)
        g = build_knn_graph(PointCloud(pts), k=3, sigma=1.0)
        w_ref, *_ = oracles.naive_graph(pts, 3, sigma=1.0)
        np.testing.assert_allclose(g.adjacency.toarray(), w_ref, atol=1e-12)

    def test_no_isolated_nodes(self):
        for seed in range(5):
            g = build_knn_graph(random_cloud(seed, n=33), k=1)
            assert g.degrees.min() > 0

    def test_sparse_storage(self):
        g = build_knn_graph(random_cloud(8, n=200), k=4)
        # Union of directed kNN keeps at most 2*n*k stored entries.
        assert g.adjacency.nnz <= 2 * 200 * 4


def int_lattice(side):
    axes = np.arange(float(side))
    return np.array(np.meshgrid(axes, axes, axes, indexing="ij")).reshape(3, -1).T


@pytest.fixture
def tree_queries(monkeypatch):
    """The graph's k-d tree queries, as (query points, k, neighbor indices) in call order.

    The queries run in the tree's order, not the file's, so a window row is
    known by its query point, not by its position.
    """
    calls = []

    class RecordingTree(graph_module.cKDTree):
        def query(self, x, k=1, **kwargs):
            dist, nbr = super().query(x, k=k, **kwargs)
            calls.append((np.array(x), k, nbr.copy()))  # as returned, before any window sort
            return dist, nbr

    monkeypatch.setattr(graph_module, "cKDTree", RecordingTree)
    return calls


class TestKnnSelection:
    def assert_matches_naive(self, pts, k):
        expected = oracles.naive_knn(pts.tolist(), k)
        np.testing.assert_array_equal(graph_module._knn_select(pts, k)[0], expected)
        w = build_knn_graph(PointCloud(pts), k=k).adjacency.tocoo()
        union = {(min(i, j), max(i, j)) for i, row in enumerate(expected) for j in row}
        assert set(zip(w.row.tolist(), w.col.tolist())) == union | {(j, i) for i, j in union}

    def test_snapped_box_with_duplicates(self):
        rng = np.random.default_rng(40)
        pts = np.round(box_cloud(rng, n=260).points, 2)
        pts = rng.permutation(np.vstack([pts, pts[:40]]))
        self.assert_matches_naive(pts, 10)

    def test_snapped_uniform_with_duplicates(self):
        # One-decimal coordinates: many distances differ from math.dist's in
        # the last bit, so the oracle must measure lengths as the tree does.
        rng = np.random.default_rng(0)
        pts = np.round(rng.uniform(-1, 1, (500, 3)), 1)
        pts = rng.permutation(np.vstack([pts, pts[:60]]))
        self.assert_matches_naive(pts, 10)

    @pytest.mark.parametrize("k", [3, 6, 26])
    def test_integer_lattice(self, k):
        self.assert_matches_naive(int_lattice(6), k)

    def test_coincident_block_among_random(self, tree_queries):
        rng = np.random.default_rng(41)
        pts = np.vstack([np.full((30, 3), 0.25), rng.normal(size=(100, 3))])
        for k in (5, 29, 30, 31):
            self.assert_matches_naive(pts, k)
        # The first k = 5 window holds 7 of the 30 coincident points, so some
        # rows of the block miss themselves; the settle rule re-queries those.
        # All 30 are queried, but fewer than 30 ids fill their windows, so
        # some point is missing from its own window, whatever the query order.
        queried, kq, window = tree_queries[0]
        assert (len(queried), kq) == (len(pts), 7)
        block = (queried == 0.25).all(axis=1)
        assert block.sum() == 30
        assert len(np.unique(window[block])) < 30

    def test_k_is_n_minus_one(self):
        pts = np.vstack([int_lattice(2), [[0.5, 0.5, 0.5]]])
        self.assert_matches_naive(pts, len(pts) - 1)

    def test_only_tied_rows_widen(self, tree_queries):
        pts = int_lattice(6)
        n = len(pts)
        build_knn_graph(PointCloud(pts), k=6)
        calls = [(len(queried), k) for queried, k, _ in tree_queries]
        assert calls[0] == (n, 8)
        assert len(calls) > 1
        assert all(rows < n for rows, _ in calls[1:])
        assert all(k < n for _, k in calls)

    def test_threaded_queries_match_single_thread(self, monkeypatch):
        # A snapped cloud with duplicates, so ties widen the window on some rows.
        rng = np.random.default_rng(42)
        pts = np.round(rng.uniform(-1, 1, size=(3000, 3)), 1)
        cloud = PointCloud(pts)
        results = []
        for threshold in (1, len(pts) + 1):  # threaded, then single-threaded
            monkeypatch.setattr(graph_module, "_THREADED_QUERY_MIN_POINTS", threshold)
            results.append((*graph_module._knn_select(pts, 10), ball_count(cloud, 0.15)))
        for threaded, single in zip(*results):  # neighbors, reach and ball counts
            np.testing.assert_array_equal(threaded, single)

    def test_single_threaded_queries_inside_block(self):
        # A pooled share sets the rule inside a copied context; the caller's stays unset.
        big = graph_module._THREADED_QUERY_MIN_POINTS

        def share():
            graph_module._single_threaded.set(True)
            return graph_module._tree_workers(big), graph_module._tree_workers(big - 1)

        cpus = graph_module._usable_cpus()
        assert graph_module._tree_workers(big) == cpus
        assert contextvars.copy_context().run(share) == (1, 1)
        assert graph_module._tree_workers(big) == cpus
        assert graph_module._tree_workers(big - 1) == 1

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs an affinity mask")
    def test_query_threads_follow_affinity_mask(self):
        # A fresh process pinned to one CPU queries on one thread; unpinned,
        # on one thread per CPU in its mask, not on every CPU of the host.
        code = (
            "from pointdrop import graph; "
            "print(graph._tree_workers(graph._THREADED_QUERY_MIN_POINTS))"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(graph_module.__file__).parents[1])}

        def workers(preexec_fn=None):
            done = subprocess.run(
                [sys.executable, "-c", code], env=env, preexec_fn=preexec_fn,
                capture_output=True, encoding="utf-8", check=True, timeout=60,
            )
            return int(done.stdout)

        assert workers(lambda: os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})) == 1
        assert workers() == len(os.sched_getaffinity(0))

    def test_usable_cpus_without_affinity_mask(self, monkeypatch):
        # Where the OS has no affinity mask, every CPU counts, and at least one.
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 6)
        assert graph_module._usable_cpus() == 6
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert graph_module._usable_cpus() == 1

    @pytest.mark.parametrize(
        "scale", [2.0**-1000, 2.0**700, 1e200, 1e-300], ids=["2^-1000", "2^700", "1e200", "1e-300"]
    )
    def test_extreme_scales_match_unit_cloud(self, scale):
        # Squared distances would underflow (overflow) at these scales; the
        # graph works in power-of-two units, so only sigma carries the scale.
        pts = np.random.default_rng(0).normal(size=(200, 3))
        unit = build_knn_graph(PointCloud(pts), k=6)
        g = build_knn_graph(PointCloud(pts * scale), k=6)
        np.testing.assert_array_equal(g.adjacency.indptr, unit.adjacency.indptr)
        np.testing.assert_array_equal(g.adjacency.indices, unit.adjacency.indices)
        if math.frexp(scale)[0] == 0.5:  # a power of two scales exactly
            np.testing.assert_array_equal(g.adjacency.data, unit.adjacency.data)
            assert g.sigma == unit.sigma * scale
        else:
            np.testing.assert_allclose(g.adjacency.data, unit.adjacency.data, rtol=1e-12)
            assert g.sigma == pytest.approx(unit.sigma * scale, rel=1e-12)
        assert g.sigma != 1.0
        given = build_knn_graph(PointCloud(pts * scale), k=6, sigma=unit.sigma * scale)
        np.testing.assert_allclose(given.adjacency.data, g.adjacency.data, rtol=1e-12)

    def test_overflowing_mean_edge_named(self):
        cloud = PointCloud([[1.5e308, 0.0, 0.0], [-1.5e308, 0.0, 0.0]])
        with pytest.raises(ValueError, match="overflow"):
            build_knn_graph(cloud, k=1)


class TestTreeOrder:
    """Both trees are queried in leaf order; no answer may depend on it."""

    @pytest.mark.parametrize("step", [0.01, 0.025, 0.05, 0.1])
    @pytest.mark.parametrize("exponent", [-3, 0, 2])
    def test_ball_counts_match_brute_force_on_lattices(self, step, exponent):
        # Lattice pairs sit exactly at a radius of a few steps, so shrinking
        # it by one ulp must change some count: the boundary is exercised.
        rng = np.random.default_rng(int(step * 1000) + exponent)
        pts = int_lattice(8)[rng.choice(512, size=300, replace=False)]
        pts = np.ldexp(rng.permutation(np.vstack([pts, pts[:20]])) * step, exponent)
        for r in np.ldexp(np.array([1.0, 2.0, 3.0]) * step, exponent):
            counts = ball_count(PointCloud(pts), r)
            np.testing.assert_array_equal(counts, oracles.naive_ball_count(pts, r))
            inside = ball_count(PointCloud(pts), np.nextafter(r, 0.0))
            np.testing.assert_array_equal(inside, oracles.naive_ball_count(pts, np.nextafter(r, 0.0)))
            assert (inside < counts).any()

    def test_permutation_equivariance_on_snapped_cloud(self):
        # Permuting a tie-heavy cloud reorders the tree's leaves and queries.
        # Ball counts follow their points; each kNN row keeps its neighbors'
        # distances, with ties still going to the lower (new) index. A 1/8
        # lattice keeps every distance exact, so the oracle sees the same ties.
        rng = np.random.default_rng(43)
        pts = np.round(rng.uniform(-1, 1, size=(500, 3)) * 8) / 8
        pts = np.vstack([pts, pts[:60]])
        perm = rng.permutation(len(pts))
        moved = pts[perm]
        for r in (0.125, 0.25):
            np.testing.assert_array_equal(
                ball_count(PointCloud(moved), r), ball_count(PointCloud(pts), r)[perm]
            )

        def neighbor_distances(p, selected):
            return np.linalg.norm(p[selected] - p[:, None], axis=2)

        (knn, reach), (moved_knn, moved_reach) = (
            graph_module._knn_select(pts, 10), graph_module._knn_select(moved, 10)
        )
        np.testing.assert_array_equal(
            neighbor_distances(moved, moved_knn), neighbor_distances(pts, knn)[perm]
        )
        np.testing.assert_array_equal(moved_reach, reach[perm])
        np.testing.assert_array_equal(moved_knn, oracles.naive_knn(moved.tolist(), 10))


class TestBallCountFromGraph:
    """f11 from the kNN graph: rows whose k-th neighbour lies beyond r never reach the tree."""

    RADII = (0.05, 0.075, 0.1, 0.125, 0.15, 0.175, 0.2, 0.25, 0.28, 0.3)

    @staticmethod
    def clouds(kind, count=10, n=200):
        """Float, one-decimal (with duplicates) or 1/8-lattice clouds, shuffled.

        On the lattice, pairs lie exactly at 0.125 and 0.25, so both the ball's
        boundary and the k-th neighbour's distance meet r exactly.
        """
        rng = np.random.default_rng(["float", "decimal", "lattice"].index(kind))
        for _ in range(count):
            if kind == "float":
                pts = rng.uniform(-1, 1, size=(n, 3))
            elif kind == "decimal":
                pts = np.round(rng.uniform(-1, 1, size=(n, 3)), 1)
                pts = np.vstack([pts, pts[: n // 10]])
            else:
                pts = int_lattice(8)[rng.choice(512, size=n, replace=False)] / 8
                pts = np.vstack([pts, pts[: n // 10]])
            yield rng.permutation(pts)

    @pytest.fixture
    def tree_rows(self, monkeypatch):
        """How many rows each ball query sends to the k-d tree, in call order."""
        rows = []

        class RecordingTree(graph_module.cKDTree):
            def query_ball_point(self, x, r, **kwargs):
                rows.append(len(x))
                return super().query_ball_point(x, r, **kwargs)

        monkeypatch.setattr(graph_module, "cKDTree", RecordingTree)
        return rows

    @staticmethod
    def assert_reach(graph, cloud, k):
        """The graph's reach, back in the cloud's scale, is the oracle's k-th length."""
        reach = np.ldexp(graph.reach, cloud._units[1])
        np.testing.assert_array_equal(reach, oracles.naive_reach(cloud.points, k), err_msg=f"k={k}")

    @pytest.mark.parametrize("kind", ["float", "decimal", "lattice"])
    def test_matches_brute_force(self, kind, tree_rows):
        # 10 clouds x k in {1, 5, 10} x 10 radii: 300 cases per kind.
        queried = total = 0
        for pts in self.clouds(kind):
            cloud = PointCloud(pts)
            expected = {r: oracles.naive_ball_count(pts, r) for r in self.RADII}
            for k in (1, 5, 10):
                graph = build_knn_graph(cloud, k)
                self.assert_reach(graph, cloud, k)
                for r in self.RADII:
                    tree_rows.clear()
                    counts = ball_count(cloud, r, graph=graph)
                    np.testing.assert_array_equal(counts, expected[r], err_msg=f"k={k}, r={r}")
                    queried += sum(tree_rows)
                    total += cloud.n
        assert 0 < queried < total / 2  # both paths ran, the graph's on most rows

    def test_extract_features_counts_from_its_graph(self, tree_rows):
        # At the CLI defaults (k = 10, r = 0.1) a 1024-point box surface sends
        # only its few crowded rows to the tree.
        cloud = box_cloud(np.random.default_rng(5), n=1024)
        expected = ball_count(cloud, 0.1)
        assert tree_rows == [cloud.n]
        tree_rows.clear()
        np.testing.assert_array_equal(extract_features(cloud).column("f11"), expected)
        assert sum(tree_rows) < cloud.n / 10

    def test_k_is_n_minus_one(self, tree_rows):
        # Every other point is a neighbour: a row goes to the tree only if its
        # ball holds the whole cloud (the lattice's distances are exact).
        pts = np.vstack([int_lattice(3) / 8, [[0.0625, 0.0625, 0.0625]]])
        cloud = PointCloud(pts)
        graph = build_knn_graph(cloud, len(pts) - 1)
        self.assert_reach(graph, cloud, len(pts) - 1)
        queried = []
        for r in (0.01, 0.125, 0.2, 0.25, 0.5):
            tree_rows.clear()
            counts = ball_count(cloud, r, graph=graph)
            expected = oracles.naive_ball_count(pts, r)
            np.testing.assert_array_equal(counts, expected)
            assert sum(tree_rows) == (expected == cloud.n).sum()
            queried.append(sum(tree_rows))
        assert queried == [0, 0, 0, 1, cloud.n]

    def test_sums_sharing_the_radius_root(self):
        # Two neighbours of the origin at one root, sqrt(s) = sqrt(r^2): the
        # tree ranks them as tied and keeps the lower index (s > r^2, outside
        # the ball), though the other (s = r^2) is inside. So the settle rule
        # must compare roots; comparing sums would settle the origin's row
        # and miss the second point. Each neighbour has a nearer companion, so
        # the origin's row of W holds only the first.
        r = 0.10000000000000005
        outside = [0.026230650538860634, 0.08985022090409724, 0.03519788027414589]
        inside = [0.036353656768131126, 0.08642994867575067, 0.034760259082636726]
        pts = np.array([[0.0, 0.0, 0.0], outside, inside, outside, inside])
        pts[3:, 0] += 0.001
        squared = (pts[:, 0] * pts[:, 0] + pts[:, 1] * pts[:, 1]) + pts[:, 2] * pts[:, 2]
        assert np.sqrt(squared[1]) == np.sqrt(squared[2]) == np.sqrt(r * r)
        assert squared[2] <= r * r < squared[1]
        cloud = PointCloud(pts)
        graph = build_knn_graph(cloud, 1)
        assert graph.adjacency[0].indices.tolist() == [1]
        counts = ball_count(cloud, r, graph=graph)
        np.testing.assert_array_equal(counts, oracles.naive_ball_count(pts, r))
        assert counts[0] == 2

    @pytest.mark.parametrize(
        "scale, r", [(1.0, math.inf), (1.0, 1e300), (1.0, 2.0**600), (2.0**-600, 1e-10)]
    )
    def test_radius_whose_square_overflows(self, scale, r):
        # r^2 in the cloud's units overflows to inf (a warning would fail the
        # test): every ball holds the cloud, so no row settles and the tree
        # counts every point.
        cloud = PointCloud(random_cloud(3, n=50).points * scale)
        graph = build_knn_graph(cloud, 6)
        np.testing.assert_array_equal(ball_count(cloud, r, graph=graph), np.full(50, 50))

    @settings(max_examples=200, deadline=None)
    @given(
        sites=st.lists(st.tuples(*[st.integers(-3, 3)] * 3), min_size=2, max_size=40),
        k=st.integers(1, 39),
        r=st.sampled_from([0.1, 0.125, 0.2, 0.25, 0.3, 0.375, 0.5]),
    )
    def test_matches_brute_force_on_drawn_lattices(self, sites, k, r):
        # Coordinates on a 1/8 lattice, repeated sites allowed: ties at r and at
        # the k-th distance are the rule, not the exception.
        pts = np.array(sites, dtype=float) / 8
        k = min(k, len(pts) - 1)
        cloud = PointCloud(pts)
        counts = ball_count(cloud, r, graph=build_knn_graph(cloud, k))
        np.testing.assert_array_equal(counts, oracles.naive_ball_count(pts, r))

    def test_graph_must_fit_the_cloud(self):
        # The graph carries its own reach, so ball_count takes no k beside it.
        assert list(inspect.signature(ball_count).parameters) == ["cloud", "r", "graph"]
        cloud = random_cloud(4, n=20)
        graph = build_knn_graph(cloud, 4)
        with pytest.raises(ValueError, match="graph has 20 nodes but the cloud has 19 points"):
            ball_count(PointCloud(cloud.points[:19]), 0.1, graph=graph)

    def test_graph_built_by_hand_counts_by_the_tree(self, tree_rows):
        # A given W carries no reach (zeros), so no row is known to hold its
        # whole ball. W's path 0-1-2 leaves out the pair 0-2, which lies 0.05
        # apart, inside the ball: counted from W it would be missed.
        pts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.05, 0.0, 0.0]])
        w = sp.csr_matrix(np.array([[0.0, 0.5, 0.0], [0.5, 0.0, 0.25], [0.0, 0.25, 0.0]]))
        graph = NeighborhoodGraph(sigma=1.0, adjacency=w)
        np.testing.assert_array_equal(graph.reach, np.zeros(3))
        counts = ball_count(PointCloud(pts), 0.1, graph=graph)
        np.testing.assert_array_equal(counts, oracles.naive_ball_count(pts, 0.1))
        np.testing.assert_array_equal(counts, [2, 1, 2])
        assert tree_rows == [3]

    def test_w_is_measured_only_when_some_row_settles(self, monkeypatch, tree_rows):
        # As on a 100k scan at the CLI defaults: when every row's k-th
        # neighbour lies inside the ball, W's squared lengths are not taken.
        pts = random_cloud(6, n=200).points
        cloud = PointCloud(pts)
        graph = build_knn_graph(cloud, 10)
        squared_lengths, calls = graph_module._squared_lengths, []

        def counting(points, pattern):
            calls.append(pattern.nnz)
            return squared_lengths(points, pattern)

        monkeypatch.setattr(graph_module, "_squared_lengths", counting)
        wide = 2.0 * np.linalg.norm(pts, axis=1).max()  # every ball holds the cloud
        middle = np.median(oracles.naive_reach(pts, 10))  # about half the rows settle
        for r, passes in ((wide, []), (middle, [graph.adjacency.nnz])):
            calls.clear()
            tree_rows.clear()
            counts = ball_count(cloud, r, graph=graph)
            np.testing.assert_array_equal(counts, oracles.naive_ball_count(pts, r))
            assert calls == passes
            # A row goes to the tree when its ball holds its 10 nearest: count > 10.
            assert sum(tree_rows) == (counts > 10).sum()


class TestSignalOps:
    def test_sparse_arrays_are_read_only(self):
        # W, L and A are frozen like D: an edit to one would leave the others
        # and the degrees disagreeing with it. Both operators still build.
        cloud = random_cloud(13)
        g = build_knn_graph(cloud, k=6)
        for matrix in (g.adjacency, g.laplacian, g.transition):
            for part, value in ((matrix.data, 2.0), (matrix.indices, 0), (matrix.indptr, 0)):
                with pytest.raises(ValueError, match="read-only"):
                    part[:] = value
        np.testing.assert_allclose(g.transition @ np.ones(g.n), 1.0, rtol=0, atol=1e-12)
        np.testing.assert_allclose(g.laplacian @ np.ones(g.n), 0.0, rtol=0, atol=1e-12)
        # A's rows come out of its product unsorted; the feature path uses A
        # and L as they are, sorting nothing in place (that would raise here).
        a = g.transition
        indices = a.indices.copy()
        assert any(np.any(np.diff(indices[lo:hi]) < 0) for lo, hi in zip(a.indptr, a.indptr[1:]))
        lpf_solve(g, cloud, 0.5)
        for operator in (a, g.laplacian):
            operator @ np.ones((g.n, 2))
        np.testing.assert_array_equal(a.indices, indices)

    def test_graph_built_by_hand_is_consistent_and_frozen(self):
        # The constructor takes only sigma and W: n and D come from W, and W's
        # arrays are frozen in place, whoever built W.
        assert list(inspect.signature(NeighborhoodGraph).parameters) == ["sigma", "adjacency"]
        w = sp.csr_matrix(np.array([[0.0, 0.5, 0.0], [0.5, 0.0, 0.25], [0.0, 0.25, 0.0]]))
        g = NeighborhoodGraph(sigma=1.0, adjacency=w)
        assert g.adjacency is w
        for part in (w.data, w.indices, w.indptr, g.degrees):
            assert not part.flags.writeable
        assert g.n == 3
        np.testing.assert_array_equal(g.degrees, np.asarray(w.sum(axis=1)).ravel())
        np.testing.assert_allclose(g.transition @ np.ones(3), 1.0, rtol=0, atol=1e-15)
        with pytest.raises(ValueError, match="graph has 3 nodes but the cloud has 5 points"):
            lpf_solve(g, random_cloud(0, n=5), 0.5)

    def test_transition_preserves_constant(self):
        g = build_knn_graph(random_cloud(10), k=10)
        out = g.transition @ np.ones(g.n)
        assert np.abs(out - 1.0).max() < 1e-12

    def test_transition_rows_sum_to_one(self):
        for seed in range(5):
            g = build_knn_graph(random_cloud(seed, n=50), k=5)
            rows = np.asarray(g.transition.sum(axis=1)).ravel()
            assert np.abs(rows - 1.0).max() < 1e-12

    def test_path_hand_value(self):
        g = build_knn_graph(PATH3, k=1, sigma=1.0)
        out = g.transition @ np.array([0.0, 1.0, 2.0])
        assert out[1] == pytest.approx(1.0, abs=1e-12)

    def test_transition_linearity(self):
        g = build_knn_graph(random_cloud(11), k=5)
        x = np.random.default_rng(0).normal(size=g.n)
        np.testing.assert_allclose(
            g.transition @ (3.0 * x), 3.0 * (g.transition @ x), atol=1e-12
        )

    def test_laplacian_kills_constants(self):
        g = build_knn_graph(random_cloud(12), k=5)
        out = g.laplacian @ np.full(g.n, 7.0)
        assert np.abs(out).max() < 1e-12

    def test_laplacian_path_hand_value(self):
        g = build_knn_graph(PATH3, k=1, sigma=1.0)
        out = g.laplacian @ np.array([0.0, 1.0, 0.0])
        assert out[1] == pytest.approx(2.0 * math.exp(-1), abs=1e-12)

    def test_quadratic_form_nonnegative(self):
        g = build_knn_graph(random_cloud(13), k=10)
        x = np.random.default_rng(99).normal(size=(g.n, 100))
        assert np.einsum("ij,ij->j", x, g.laplacian @ x).min() >= -1e-10

    def test_laplacian_output_sums_to_zero(self):
        g = build_knn_graph(random_cloud(14), k=7)
        x = np.random.default_rng(1).normal(size=(g.n, 10))
        assert np.all(np.abs((g.laplacian @ x).sum(axis=0)) <= 1e-9 * np.linalg.norm(x, axis=0))

    def test_block_matches_columns(self):
        # A whole (n, c) block gives each column bit for bit as applied alone.
        g = build_knn_graph(random_cloud(15), k=6)
        x = np.random.default_rng(2).normal(size=(g.n, 3))
        for op in (g.transition, g.laplacian):
            block = op @ x
            for c in range(3):
                np.testing.assert_array_equal(block[:, c], op @ x[:, c])
