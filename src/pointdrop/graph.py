"""Two neighborhood queries over point clouds: kNN graphs and closed-ball counts.

Each point is connected to its k Euclidean nearest neighbors (ties broken by
lower point index) and the edge set is symmetrized by union, W taking the
pattern of K + K^T, so no node is isolated; only rows whose k-th-distance
tie is not yet inside the query window widen it. Both k-d trees (neighbor
selection and ball counts) are built by sliding midpoint and queried in their
own leaf order, answers scattered back to file order. On clouds of 8192
points or more both queries run on one thread per CPU of the affinity mask,
except inside one share of a corpus fit run across processes. Each row's
answer is computed whole by one thread from the point set alone, so neither
tree shape, query order nor thread count changes the graph or the counts.
The graph keeps each row's k-th neighbour distance, its reach, and
``ball_count`` counts the rows whose reach exceeds the radius from W, querying
the tree for the rest only: at the CLI defaults, 1-120 rows of each of
perfbench's 1024-point attack clouds, but every row of its 100k-point scan.
Lengths are taken in the cloud's power-of-two units (the scale rule of
``io``), so no cloud scale underflows or overflows the squared distances.
Edge weights follow a Gaussian kernel

    W[i, j] = exp(-||p_i - p_j||^2 / sigma^2)

which keeps weights in (0, 1]. ``NeighborhoodGraph(sigma, W)`` derives n and
the degrees D from W and makes W's arrays read-only in place; on first use it
builds the Laplacian L = D - W (positive semi-definite) and the row-stochastic
transition matrix A = D^-1 W. So every graph is a frozen value: no field can
be rebound, and D, reach and the CSR arrays of W, L and A are read-only.
"""

from __future__ import annotations

import math
import os
from contextvars import ContextVar
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.spatial import cKDTree

from .io import PointCloud, _readonly, _to_units

# exp(-x) underflows to exactly 0 near x = 745; clamp so stored weights stay
# positive and every degree is nonzero even for extreme outlier edges.
_MAX_KERNEL_EXPONENT = 700.0

# Cloud size from which k-d tree queries run on every CPU. On a 2-vCPU x86
# host threads first paid off at 4-8k points (8k: kNN 31 -> 18 ms, balls
# 23 -> 14 ms); at 1024 they cost ~0.4 ms a query and widened the latency
# tail of whole 1024-point attacks by tens of percent.
_THREADED_QUERY_MIN_POINTS = 8192

# True while this process works one share of a corpus beside other processes
# that each hold a CPU; threaded queries there would start about c^2 threads
# on a c-CPU host.
_single_threaded = ContextVar("single_threaded", default=False)


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _tree_workers(n: int) -> int:
    """The ``workers`` argument for cKDTree queries over an n-point cloud."""
    return 1 if n < _THREADED_QUERY_MIN_POINTS or _single_threaded.get() else _usable_cpus()


def _frozen(matrix: sp.csr_matrix) -> sp.csr_matrix:
    """The CSR matrix itself, its three arrays made read-only in place: the graph owns them."""
    for part in (matrix.data, matrix.indices, matrix.indptr):
        part.setflags(write=False)
    return matrix


@dataclass(frozen=True, eq=False)
class NeighborhoodGraph:
    """Symmetrized kNN graph: sparse weights, degrees, and operators cached on first use.

    ``reach`` is each point's k-th neighbour distance in the cloud's units, or 0 for a given W.
    """

    n: int = field(init=False)
    sigma: float
    adjacency: sp.csr_matrix = field(repr=False)
    degrees: np.ndarray = field(init=False, repr=False)
    reach: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "n", self.adjacency.shape[0])
        object.__setattr__(self, "degrees", _readonly(_frozen(self.adjacency).sum(axis=1)).ravel())
        object.__setattr__(self, "reach", _readonly(np.zeros(self.n)))

    @cached_property
    def laplacian(self) -> sp.csr_matrix:
        """Combinatorial Laplacian L = D - W."""
        return _frozen((sp.diags(self.degrees) - self.adjacency).tocsr())

    @cached_property
    def transition(self) -> sp.csr_matrix:
        """Row-stochastic averaging operator A = D^-1 W."""
        return _frozen((sp.diags(1.0 / self.degrees) @ self.adjacency).tocsr())

    @property
    def num_edges(self) -> int:
        """Undirected edge count."""
        return self.adjacency.nnz // 2


def _knn_select(points: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Each point's k nearest neighbors, by (distance, index), and its k-th neighbor distance.

    Each query window is taken in (not self, distance, index) order and its
    columns 1..k kept; the tree returns it by distance, so only a window with a
    repeated distance is sorted (self is at distance 0, so one without self
    first holds a second 0). A row is settled once the tie group at its k-th
    distance lies inside the window (that distance is below the window's last)
    or the window spans the cloud; only unsettled rows are queried again, at
    twice the window. A window without self holds only distance-0 points, so
    it never settles.
    """
    n = len(points)
    tree = cKDTree(points, balanced_tree=False)
    selected = np.empty((n, k), dtype=np.intp)
    reach = np.empty(n)
    rows = tree.indices
    kq = min(n, k + 2)
    workers = _tree_workers(n)
    while rows.size:
        dist, nbr = tree.query(points[rows], k=kq, workers=workers)
        fix = np.flatnonzero((dist[:, 1:] == dist[:, :-1]).any(axis=1))
        d, b = dist[fix], nbr[fix]
        nbr[fix] = np.take_along_axis(b, np.lexsort((b, d, b != rows[fix, None])), axis=1)
        # dist stays as queried, self's 0 among it: dist[:, k] is the k-th neighbor's distance.
        settled = (dist[:, k] < dist[:, -1]) | (kq >= n)
        selected[rows[settled]] = nbr[settled, 1 : k + 1]
        reach[rows[settled]] = dist[settled, k]
        rows = rows[~settled]
        kq = min(n, 2 * kq)
    return selected, reach


def _squared_lengths(points: np.ndarray, pattern: sp.csr_matrix) -> np.ndarray:
    """(dx^2 + dy^2) + dz^2 for each stored entry (i, j) of ``pattern``, in CSR order.

    The sum a k-d tree compares, in its order: it starts from 0 and adds one coordinate
    at a time, np.linalg.norm's order, to spare memory. As p_i - p_j = -(p_j - p_i)
    exactly, both entries of a symmetric pair agree.
    """
    per_row = np.diff(pattern.indptr)
    return sum(
        (np.repeat(coordinate, per_row) - np.take(coordinate, pattern.indices)) ** 2
        for coordinate in points.T
    )


def ball_count(
    cloud: PointCloud, r: float, *, graph: NeighborhoodGraph | None = None
) -> np.ndarray:
    """Points within the closed ball of radius r around each point, self included (f11).

    A point j is inside when s = (dx^2 + dy^2) + dz^2 <= r^2, in the cloud's units.
    Given its kNN graph, a row whose reach exceeds sqrt(r^2) is settled from W alone:
    W's row holds its k nearest, and every other point, ranked after the k-th by the
    tree's root of s (ties to the lower index), lies beyond the ball too. Its count is
    1 + #{j in W's row : s <= r^2}; roots, not sums, meet the radius, since two sums
    can share one root. Other rows (all of them for a given W, whose reach is 0, or
    without a graph) go to a k-d tree query in the tree's order, so the counts equal
    the tree's either way. W's lengths are taken only when some row settles.
    """
    if not r > 0:
        raise ValueError(f"ball radius must be positive, got {r}")
    points, exponent = cloud._units
    with np.errstate(over="ignore"):  # a radius of inf units counts every point, as it should
        radius = np.ldexp(r, -exponent)
        r2 = radius * radius
    counts = np.empty(cloud.n, dtype=np.int64)
    settled = np.zeros(cloud.n, dtype=bool)
    if graph is not None:
        if graph.n != cloud.n:
            raise ValueError(f"graph has {graph.n} nodes but the cloud has {cloud.n} points")
        settled = graph.reach > np.sqrt(r2)
        if settled.any():  # a reach > 0 comes from build_knn_graph, whose W has no empty row
            inside = _squared_lengths(points, graph.adjacency) <= r2
            counts[settled] = 1 + np.add.reduceat(inside, graph.adjacency.indptr[:-1])[settled]
    if not settled.all():
        tree = cKDTree(points, balanced_tree=False)
        order = tree.indices[~settled[tree.indices]]
        counts[order] = tree.query_ball_point(
            points[order], radius, return_length=True, workers=_tree_workers(cloud.n)
        )
    return counts


def build_knn_graph(cloud: PointCloud, k: int, sigma: float | None = None) -> NeighborhoodGraph:
    """Build the union-symmetrized kNN graph of a cloud.

    Parameters
    ----------
    cloud : PointCloud
    k : int
        Neighbors per point, 1 <= k <= n - 1.
    sigma : float, optional
        Gaussian kernel width. ``None`` selects it automatically as the mean
        Euclidean length of the retained edges, which spreads weights over
        (0, 1) regardless of cloud scale.
    """
    n = cloud.n
    if not 1 <= k <= n - 1:
        raise ValueError(f"k must satisfy 1 <= k <= n-1 = {n - 1}, got {k}")
    if sigma is not None and not sigma > 0:
        raise ValueError(f"sigma must be positive, got {sigma}")

    points, exponent = cloud._units  # every length and width below is in these units

    # Union symmetrization: K + K^T holds each pair twice; its upper entries (i < j) once.
    selected, reach = _knn_select(points, k)
    neighbors = np.sort(selected, axis=1).ravel()
    knn = sp.csr_matrix((np.ones(n * k, dtype=bool), neighbors, np.arange(0, n * k + 1, k)), (n, n))
    adjacency = knn + knn.T
    lengths = np.sqrt(_squared_lengths(points, adjacency))
    if sigma is None:
        rows = np.repeat(np.arange(n), np.diff(adjacency.indptr))
        mean_length = float(lengths[rows < adjacency.indices].mean())
        if mean_length == 0.0:
            # Every retained edge joins coincident points; any width gives
            # weight exp(0) = 1, so report a neutral one.
            sigma = 1.0
        elif _to_units(mean_length)[1] + exponent > 1024:
            raise ValueError("mean edge length overflows: coordinates are too large in magnitude")
        else:
            sigma = math.ldexp(mean_length, exponent)
    # A width that underflows to 0 would turn coincident points' 0/0 into NaN.
    width = max(math.ldexp(sigma, -exponent), math.ulp(0.0))

    # A tiny given width can square to inf; the clamp maps that to weight
    # exp(-700), so the overflow is expected and harmless.
    with np.errstate(over="ignore"):
        adjacency.data = np.exp(-np.minimum((lengths / width) ** 2, _MAX_KERNEL_EXPONENT))
    graph = NeighborhoodGraph(sigma=sigma, adjacency=adjacency)
    object.__setattr__(graph, "reach", _readonly(reach))  # the constructor's zeros, replaced
    return graph
