"""k-nearest-neighbor graphs over point clouds and their two operators.

Each point is connected to its k Euclidean nearest neighbors (ties broken by
lower point index) and the edge set is symmetrized by union, so no node is
isolated; only rows whose k-th-distance tie is not yet inside the query
window widen it. On clouds of 8192 points or more the k-d tree queries run
on every CPU scipy sees; each row's answer is computed whole by one thread,
so the graph does not depend on the thread count. Lengths are taken in the
cloud's power-of-two units (the scale rule of ``io``), so no cloud scale
underflows or overflows the squared distances. Edge weights follow a Gaussian kernel

    W[i, j] = exp(-||p_i - p_j||^2 / sigma^2)

which keeps weights in (0, 1]. The graph exposes the degree vector D and,
built on first use, the two operators the features apply to whole signal
blocks: the combinatorial Laplacian L = D - W (positive semi-definite) and
the row-stochastic transition matrix A = D^-1 W. The graph is a frozen value:
no field can be rebound, and D is stored read-only.
"""

from __future__ import annotations

import math
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


def _tree_workers(n: int) -> int:
    """The ``workers`` argument for cKDTree queries over an n-point cloud."""
    return -1 if n >= _THREADED_QUERY_MIN_POINTS else 1


@dataclass(frozen=True, eq=False)
class NeighborhoodGraph:
    """Symmetrized kNN graph: sparse weights, degrees, and operators cached on first use."""

    n: int
    sigma: float
    adjacency: sp.csr_matrix = field(repr=False)
    degrees: np.ndarray = field(repr=False)

    @cached_property
    def laplacian(self) -> sp.csr_matrix:
        """Combinatorial Laplacian L = D - W."""
        return (sp.diags(self.degrees) - self.adjacency).tocsr()

    @cached_property
    def transition(self) -> sp.csr_matrix:
        """Row-stochastic averaging operator A = D^-1 W."""
        return (sp.diags(1.0 / self.degrees) @ self.adjacency).tocsr()

    @property
    def num_edges(self) -> int:
        """Undirected edge count."""
        return self.adjacency.nnz // 2


def _knn_select(points: np.ndarray, k: int) -> np.ndarray:
    """Indices of each point's k nearest neighbors, ordered by (distance, index).

    A row is settled once the tie group at its k-th distance lies inside the
    query window (that distance is below the window's last) or the window
    spans the cloud; only unsettled rows are queried again, at twice the window.
    """
    n = len(points)
    tree = cKDTree(points)
    selected = np.empty((n, k), dtype=np.intp)
    rows = np.arange(n)
    kq = min(n, k + 2)
    workers = _tree_workers(n)
    while rows.size:
        dist, nbr = tree.query(points[rows], k=kq, workers=workers)
        # Reordering within ties leaves the ascending distances in place.
        nbr = np.take_along_axis(nbr, np.lexsort((nbr, dist)), axis=1)
        # Drop the self entry; under heavy duplication self may be absent
        # from the window, in which case the farthest candidate goes instead.
        keep = nbr != rows[:, None]
        keep[keep.all(axis=1), -1] = False
        nbr = nbr[keep].reshape(len(rows), kq - 1)
        # dist[:, k] is the k-th neighbor's distance; all are 0 if self fell outside the window.
        settled = (dist[:, k] < dist[:, -1]) | (kq >= n)
        selected[rows[settled]] = nbr[settled, :k]
        rows = rows[~settled]
        kq = min(n, 2 * kq)
    return selected


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

    # Every length and width below is in the cloud's power-of-two units.
    points, exponent = _to_units(cloud.points)
    exponent = int(exponent)  # math.ldexp takes only a Python int

    # Union symmetrization: the strict upper triangle of K + K^T lists each
    # undirected pair once as (lo, hi), sorted by lo, then hi.
    rows = np.repeat(np.arange(n), k)
    cols = _knn_select(points, k).ravel()
    knn = sp.coo_matrix((np.ones(n * k, dtype=bool), (rows, cols)), shape=(n, n)).tocsr()
    pairs = sp.triu(knn + knn.T, 1, format="coo")
    lo, hi = pairs.row, pairs.col

    lengths = np.linalg.norm(points[lo] - points[hi], axis=1)
    if sigma is None:
        mean_length = float(lengths.mean())
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
        weights = np.exp(-np.minimum((lengths / width) ** 2, _MAX_KERNEL_EXPONENT))
    adjacency = sp.csr_matrix(
        (np.concatenate([weights, weights]), (np.concatenate([lo, hi]), np.concatenate([hi, lo]))),
        shape=(n, n),
    )
    degrees = _readonly(adjacency.sum(axis=1)).ravel()
    return NeighborhoodGraph(n=n, sigma=sigma, adjacency=adjacency, degrees=degrees)
