"""No-intercept least squares linking point features to adversarial scores.

The model is z = sum_j c_j f_j over the fourteen feature columns, with no
constant term. The fit reports classical OLS inference: standard errors from
s^2 (X^T X)^-1 with s^2 = RSS / (m - q), a two-sided t-test per coefficient,
and R^2 = 1 - RSS/TSS with TSS taken about the target mean. Coefficients
whose p-value clears the chosen alpha form the significant set used by
downstream score prediction.

The fit takes plain arrays: ``select_top_targets`` turns one cloud's scores
and features into its top-N rows (x, y), callers concatenate the per-cloud
blocks, and ``fit_mlr`` fits the pooled (m, 14) design against the m targets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.stats import t as student_t

from .attack import rank_top_n
from .features import FEATURE_NAMES, FeatureMatrix
from .io import NORMALIZED_ADVERSARIAL, NUM_FEATURES, CoefficientSet, ScoreVector, _readonly

# Residual energy at or below this fraction of the target energy counts as an
# exact interpolation. OLS inference degenerates there (s^2 = 0), so the guard
# reports p = 0 for nonzero coefficients and p = 1 for zero ones.
_ZERO_RESIDUAL_FRACTION = 1e-20


@dataclass(frozen=True)
class RegressionFit:
    """Coefficients with OLS inference for one fitted model.

    std_errors are zero only under the exact-interpolation guard, in which
    case t_stats hold +/-inf for nonzero coefficients and 0 for zero ones.
    r_squared is not clamped: a no-intercept model can in principle score
    below 0 on data whose mean it cannot absorb.
    """

    coefficients: np.ndarray
    std_errors: np.ndarray
    t_stats: np.ndarray
    p_values: np.ndarray
    r_squared: float
    sample_count: int
    alpha: float

    def __post_init__(self):
        for field in ("coefficients", "std_errors", "t_stats", "p_values"):
            arr = np.asarray(getattr(self, field), dtype=np.float64)
            if arr.shape != (NUM_FEATURES,):
                raise ValueError(f"{field} must have length {NUM_FEATURES}")
            object.__setattr__(self, field, _readonly(arr))
        if self.p_values.min() < 0.0 or self.p_values.max() > 1.0:
            raise ValueError("p-values must lie in [0, 1]")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")

    @property
    def significant(self) -> np.ndarray:
        """Boolean mask of coefficients with p < alpha."""
        return self.p_values < self.alpha

    def to_coefficient_set(self, provenance: str = "fitted") -> CoefficientSet:
        """Keep significant coefficients, zero the rest."""
        sig = self.significant
        return CoefficientSet(np.where(sig, self.coefficients, 0.0), sig, provenance)


def fit_mlr(x, y, alpha: float = 0.05) -> RegressionFit:
    """Least-squares fit of targets on the fourteen features.

    Parameters
    ----------
    x : array_like, shape (m, 14)
        Pooled feature rows; m must exceed the coefficient count.
    y : array_like, shape (m,)
        Target score of each row. Any finite values are accepted, so planted
        and rescaled models stay expressible.
    alpha : float
        Two-sided significance level for the per-coefficient t-tests.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    q = NUM_FEATURES
    if x.ndim != 2 or x.shape[1] != q or y.shape != x.shape[:1]:
        raise ValueError(
            f"expected an (m, {q}) design and m targets, got shapes {x.shape} and {y.shape}"
        )
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValueError("training data contains non-finite values")
    m = len(y)
    if m <= q:
        raise ValueError(f"need more than {q} samples to fit, got {m}")

    # Pivoted QR gives the fit, the rank check, and (X^T X)^-1 in one pass.
    qmat, rmat, piv = scipy.linalg.qr(x, mode="economic", pivoting=True)
    rdiag = np.abs(np.diag(rmat))
    tol = rdiag[0] * max(m, q) * np.finfo(np.float64).eps if rdiag[0] > 0 else 0.0
    rank = int(np.sum(rdiag > tol))
    if rank < q:
        dependent = ", ".join(FEATURE_NAMES[j] for j in sorted(piv[rank:]))
        raise ValueError(f"design matrix is rank-deficient; dependent columns: {dependent}")

    coef = np.empty(q)
    coef[piv] = scipy.linalg.solve_triangular(rmat, qmat.T @ y)
    residual = y - x @ coef
    rss = float(residual @ residual)
    df = m - q

    # diag((X^T X)^-1) = row sums of squares of R^-1, unpermuted.
    rinv = scipy.linalg.solve_triangular(rmat, np.eye(q))
    xtx_inv_diag = np.empty(q)
    xtx_inv_diag[piv] = np.sum(rinv * rinv, axis=1)

    if rss <= _ZERO_RESIDUAL_FRACTION * float(y @ y):
        # Exact interpolation: s^2 = 0 and the t statistics blow up. A
        # coefficient counts as nonzero only above the ambient rounding scale.
        magnitude = np.abs(coef)
        nonzero = magnitude > 1e-8 * magnitude.max() if magnitude.max() > 0 else magnitude > 0
        std_errors = np.zeros(q)
        t_stats = np.zeros(q)
        t_stats[nonzero] = np.sign(coef[nonzero]) * np.inf
        p_values = np.where(nonzero, 0.0, 1.0)
    else:
        s2 = rss / df
        std_errors = np.sqrt(s2 * xtx_inv_diag)
        t_stats = coef / std_errors
        p_values = 2.0 * student_t.sf(np.abs(t_stats), df)

    tss = float(np.sum((y - y.mean()) ** 2))
    if tss > 0.0:
        r_squared = 1.0 - rss / tss
    else:
        # Constant targets carry no variance to explain.
        r_squared = 1.0 if rss <= _ZERO_RESIDUAL_FRACTION * float(y @ y) else 0.0

    return RegressionFit(
        coefficients=coef,
        std_errors=std_errors,
        t_stats=t_stats,
        p_values=p_values,
        r_squared=r_squared,
        sample_count=m,
        alpha=alpha,
    )


def select_top_targets(cloud_scores: ScoreVector, features: FeatureMatrix, n_top: int):
    """The feature rows and targets of one cloud's n_top highest-scoring points.

    Scores must be normalized-adversarial; rows come in ``rank_top_n`` order,
    descending score with ties to the lower index. Returns ``(x, y)`` with
    shapes (n_top, 14) and (n_top,).
    """
    if cloud_scores.kind != NORMALIZED_ADVERSARIAL:
        raise ValueError(f"scores must be normalized-adversarial, got kind {cloud_scores.kind!r}")
    n = cloud_scores.n
    if features.n != n:
        raise ValueError(f"feature rows ({features.n}) do not match score count ({n})")
    order = rank_top_n(cloud_scores, n_top)
    return features.values[order], cloud_scores.values[order]


def average_coefficients(sets) -> CoefficientSet:
    """Element-wise mean of coefficient sets.

    Insignificant entries contribute their stored zeros; an index is
    significant in the result when any input marks it significant.
    """
    sets = list(sets)
    if not sets:
        raise ValueError("need at least one coefficient set to average")
    values = np.mean([s.coefficients for s in sets], axis=0)
    significant = np.any([s.significant for s in sets], axis=0)
    provenance = " + ".join(s.provenance for s in sets)
    return CoefficientSet(np.where(significant, values, 0.0), significant, provenance)


def fit_report(fit: RegressionFit) -> str:
    """Readable per-coefficient table plus the fit summary line."""
    header = f"{'term':>9} {'coefficient':>16} {'std_error':>16} {'t':>16} {'p':>12} {'sig':>5}"
    lines = [header]
    sig = fit.significant
    for j in range(NUM_FEATURES):
        lines.append(
            f"{FEATURE_NAMES[j]:>9} {fit.coefficients[j]:>16.9g} {fit.std_errors[j]:>16.9g} "
            f"{fit.t_stats[j]:>16.9g} {fit.p_values[j]:>12.4e} {'yes' if sig[j] else 'no':>5}"
        )
    lines.append(
        f"R^2 = {fit.r_squared:.6f}  samples = {fit.sample_count}  alpha = {fit.alpha:g}"
    )
    return "\n".join(lines) + "\n"
