"""Fourteen per-point geometric features from graph-signal filtering.

The module assembles the 14 columns from the graph, the ball counts (both
queried in ``graph``, from W wherever the graph's reach exceeds the radius)
and the low-pass solve. Feature columns, in fixed order:

  f1       local variation v_i = ||p_i - pbar_i||
  f2..f4   weighted neighborhood average coordinates pbar = A p (x, y, z)
  f5..f7   coordinate second differences ptilde = L p (x, y, z)
  f8       smoothed variation vbar = A v
  f9       variation second difference vtilde = L v
  f10      Euclidean distance from p_i to the cloud centroid
  f11      point count in the closed ball of radius r centered at p_i
  f12      low-pass residual h_i = ||p_i - q*_i||
  f13      smoothed residual hbar = A h
  f14      residual second difference htilde = L h

A and L are the graph's transition and Laplacian operators. They act on
three signals, each once and as a whole block: the coordinates p (n x 3),
then v and h stacked side by side (n x 2).

q* is the low-pass-filtered cloud: each coordinate column solves the
positive definite system (I + gamma L) q*_c = p_c, so large gamma pulls
q* toward the graph consensus and h measures high-frequency content. By
default the three columns are solved together by Jacobi-preconditioned
block conjugate gradient, its iterates held column-major (three contiguous
rows of n values); sparse LU is the fallback when gamma times the largest
degree makes the system ill conditioned or CG breaks down or does not
converge.
The test oracle solves the same system densely.

Lengths are computed in power-of-two units (the scale rule of ``io``): a
cloud and ball radius scaled by 2^e give the length columns scaled by 2^e.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .graph import NeighborhoodGraph, ball_count, build_knn_graph
from .io import NUM_FEATURES, PointCloud, _format_rows, _readonly, _to_units

FEATURE_NAMES = tuple(f"f{j}" for j in range(1, NUM_FEATURES + 1))

# Column positions (0-based) of the sign- and integrality-constrained features.
_NONNEGATIVE_COLUMNS = (0, 7, 9, 11, 12)  # f1, f8, f10, f12, f13
_COUNT_COLUMN = 10  # f11
_LENGTH_COLUMNS = np.arange(NUM_FEATURES) != _COUNT_COLUMN

# I + gamma L has condition number at most 1 + 2 gamma d_max, with or
# without Jacobi scaling. Up to this bound on gamma * d_max block CG beat
# sparse LU at every size measured (2-core x86: the two break even near
# gamma * d_max = 45 at n = 1024 and above 200 at n = 10k); above it LU runs.
_PCG_MAX_GAMMA_DEGREE = 32.0
_PCG_RTOL = 1e-12  # per-column ||r|| / ||p|| at which CG stops
_NORMAL_MIN = np.finfo(np.float64).tiny  # the smallest positive normal float


@dataclass(frozen=True, eq=False)
class FeatureMatrix:
    """n x 14 per-point feature values, columns ordered f1..f14."""

    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.ndim != 2 or vals.shape[1] != NUM_FEATURES or vals.shape[0] < 1:
            raise ValueError(f"feature matrix must be n x {NUM_FEATURES}, got shape {vals.shape}")
        if not np.all(np.isfinite(vals)):
            raise ValueError("feature matrix contains non-finite entries")
        for c in _NONNEGATIVE_COLUMNS:
            if vals[:, c].min() < 0.0:
                raise ValueError(f"feature f{c + 1} must be non-negative")
        counts = vals[:, _COUNT_COLUMN]
        if np.any(counts != np.round(counts)) or counts.min() < 1.0:
            raise ValueError("feature f11 must be an integer count >= 1")
        object.__setattr__(self, "values", _readonly(vals))

    @property
    def n(self) -> int:
        return self.values.shape[0]

    def column(self, name: str) -> np.ndarray:
        """Feature column by name, e.g. ``column("f12")``."""
        return self.values[:, FEATURE_NAMES.index(name)]


def _block_pcg(system: sp.csr_matrix, rhs: np.ndarray, max_iter: int):
    """Jacobi-preconditioned CG on every column of ``rhs`` at once, from x0 = rhs.

    The preconditioner is the diagonal of ``system``. The columns share one sparse matvec
    per step but keep their own step sizes. The iterates are held column-major, one
    C-contiguous row of length n per column of ``rhs``, so every step and reduction
    runs over n contiguous values, not n rows of width 3. A column stops once
    ||r|| <= _PCG_RTOL ||rhs||; it is then frozen by a mask, so an all-zero column
    (r = 0 from the start) never divides 0 by 0. Returns None, for the caller's LU
    fallback, if a running column's d^T A d is not a positive normal float (a
    breakdown) or any column is still running after ``max_iter``; otherwise the
    solution, shaped like ``rhs``.
    """
    diag = system.diagonal()

    def matvec(v):
        return np.ascontiguousarray((system @ v.T).T)

    def norms(v):
        return np.sqrt(np.einsum("ij,ij->i", v, v))

    x = rhs.T.copy()
    target = _PCG_RTOL * norms(x)
    r = x - matvec(x)
    z = r / diag
    d = z.copy()
    rz = np.einsum("ij,ij->i", r, z)
    # Written so that a NaN residual keeps its column running into the cap.
    active = ~(norms(r) <= target)
    for _ in range(max_iter):
        if not active.any():
            break
        ad = matvec(d)
        dad = np.einsum("ij,ij->i", d, ad)
        # A running column whose d^T A d is 0, subnormal or NaN has underflowed
        # (or broken down): its step and residual norm mean nothing from here.
        if not np.all(dad[active] >= _NORMAL_MIN):
            return None
        alpha = np.divide(rz, dad, out=np.zeros_like(rz), where=active)[:, None]
        x += alpha * d
        r -= alpha * ad
        z = r / diag
        rz_next = np.einsum("ij,ij->i", r, z)
        d *= np.divide(rz_next, rz, out=np.zeros_like(rz), where=active)[:, None]
        d += z
        rz = rz_next
        active = ~(norms(r) <= target)
    return None if active.any() else x.T


def lpf_solve(graph: NeighborhoodGraph, cloud: PointCloud, gamma: float) -> np.ndarray:
    """Low-pass-filter the coordinates: solve (I + gamma L) q*_c = p_c per column.

    The system matrix is symmetric positive definite with spectrum in
    [1, 1 + 2 gamma d_max]. While gamma * d_max <= _PCG_MAX_GAMMA_DEGREE it
    is solved by Jacobi-preconditioned block CG; above that bound, or if CG
    reaches the iteration cap the same bound implies, by sparse LU. Either
    way the residual is checked, which guards both solvers. All three work in
    per-column power-of-two units (the scale rule of ``io``).
    """
    if graph.n != cloud.n:
        raise ValueError(f"graph has {graph.n} nodes but the cloud has {cloud.n} points")
    gamma_dmax = gamma * float(graph.degrees.max())
    kappa = 1.0 + 2.0 * gamma_dmax  # ||I + gamma L||, which bounds its condition number
    if not (gamma > 0 and kappa < math.inf):
        raise ValueError(f"gamma must be positive, with 2 gamma d_max finite, got {gamma}")
    b, exponents = _to_units(cloud.points, axis=0)
    system = sp.identity(graph.n, format="csr") + gamma * graph.laplacian
    qstar = None
    if gamma_dmax <= _PCG_MAX_GAMMA_DEGREE:
        # CG reduces the residual by rtol within about (sqrt(kappa) / 2)
        # ln(2 kappa / rtol) steps at condition number kappa; reaching the
        # cap means rounding has stalled it.
        max_iter = math.ceil(0.5 * math.sqrt(kappa) * math.log(2.0 * kappa / _PCG_RTOL))
        qstar = _block_pcg(system, b, max_iter)
    if qstar is None:
        try:  # splu raises RuntimeError on a matrix singular in floating point
            qstar = splu(system.tocsc()).solve(b)
        except RuntimeError as exc:
            raise ValueError(f"low-pass solve failed: {exc}") from None

    # Relative residual bound, widened by the matvec rounding floor
    # eps*kappa*||q|| which dominates only for extreme gamma (~1e9).
    residual = np.linalg.norm(system @ qstar - b, axis=0)
    floor = 64.0 * np.finfo(np.float64).eps * kappa
    allowed = np.maximum(1e-8 * np.linalg.norm(b, axis=0), floor * np.linalg.norm(qstar, axis=0))
    # Written so that a NaN residual or tolerance fails the check.
    if not np.all(residual <= allowed):
        raise ValueError(
            f"low-pass solve failed: residual norms {residual.tolist()} "
            f"exceed tolerances {allowed.tolist()}"
        )
    return np.ldexp(qstar, exponents)


def extract_features(
    cloud: PointCloud,
    k: int = 10,
    sigma: float | None = None,
    gamma: float = 0.5,
    ball_radius: float = 0.1,
) -> FeatureMatrix:
    """Assemble the full n x 14 feature matrix for one cloud.

    Parameters
    ----------
    cloud : PointCloud
    k : int
        Neighbors per point for the graph.
    sigma : float, optional
        Gaussian kernel width; ``None`` selects the mean retained-edge length.
    gamma : float
        Low-pass regularization weight.
    ball_radius : float
        Radius of the closed counting ball.
    """
    graph = build_knn_graph(cloud, k=k, sigma=sigma)
    points, exponent = cloud._units
    transition, laplacian = graph.transition, graph.laplacian
    pbar = transition @ points
    ptilde = laplacian @ points
    v = np.linalg.norm(points - pbar, axis=1)
    # The unit cloud, not ``cloud``: q* comes back in units, unrounded at any cloud scale.
    h = np.linalg.norm(points - lpf_solve(graph, PointCloud(points), gamma), axis=1)
    vh = np.column_stack([v, h])
    vh_bar = transition @ vh
    vh_tilde = laplacian @ vh
    columns = np.column_stack(
        [
            v,
            pbar,
            ptilde,
            vh_bar[:, 0],
            vh_tilde[:, 0],
            np.linalg.norm(points - points.mean(axis=0), axis=1),
            ball_count(cloud, ball_radius, graph=graph),
            h,
            vh_bar[:, 1],
            vh_tilde[:, 1],
        ]
    )
    np.ldexp(columns, exponent, out=columns, where=_LENGTH_COLUMNS)
    return FeatureMatrix(columns)


def features_to_csv(features: FeatureMatrix) -> str:
    """CSV dump: header f1..f14, one row per point, full float precision."""
    return ",".join(FEATURE_NAMES) + "\n" + _format_rows(features.values, ",")
