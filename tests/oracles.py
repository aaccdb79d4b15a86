"""Independent reference implementations used to cross-check the package.

Everything here deliberately avoids the code paths of the package itself:
neighbor search is a quadratic loop instead of a kd-tree, graph operators are
dense arrays instead of sparse matrices, the low-pass system is solved with a
dense LAPACK solve instead of a sparse factorization, OLS inference comes
from explicit normal equations, t-distribution tails come from a
hand-rolled regularized incomplete beta continued fraction rather than any
statistics library, and text tables are read token by token with ``float``
instead of one numpy conversion.
"""

import math

import numpy as np

_EXP_CLAMP = 700.0


def _tree_length(p, q):
    """sqrt((dx^2 + dy^2) + dz^2), summed in that order: the length a k-d tree measures."""
    dx, dy, dz = (a - b for a, b in zip(p, q))
    return math.sqrt((dx * dx + dy * dy) + dz * dz)


def naive_knn(points, k):
    """k nearest neighbors per point by exhaustive search, ties to lower index.

    Pairs are ranked by ``_tree_length``, the rule ``naive_ball_count`` states.
    """
    n = len(points)
    out = []
    for i in range(n):
        ranked = sorted(
            (_tree_length(points[i], points[j]), j) for j in range(n) if j != i
        )
        out.append([j for _, j in ranked[:k]])
    return out


def naive_ball_count(points, r):
    """Closed-ball counts, self included, by testing every pair.

    A pair is inside when ((dx^2 + dy^2) + dz^2) <= r^2, the squared length
    a k-d tree compares, summed coordinate by coordinate in that order.
    """
    points = np.asarray(points, dtype=np.float64)
    d = points[:, None, :] - points[None, :, :]
    squared = (d[..., 0] * d[..., 0] + d[..., 1] * d[..., 1]) + d[..., 2] * d[..., 2]
    return (squared <= r * r).sum(axis=1)


def naive_reach(points, k):
    """Each point's k-th smallest ``_tree_length`` to another point, by sorting all of them.

    Every other point counts, coincident ones included; only the point itself is left
    out. The lengths are summed in ``_tree_length``'s order, as ``naive_ball_count``'s.
    """
    points = np.asarray(points, dtype=np.float64)
    d = points[:, None, :] - points[None, :, :]
    lengths = np.sqrt((d[..., 0] * d[..., 0] + d[..., 1] * d[..., 1]) + d[..., 2] * d[..., 2])
    np.fill_diagonal(lengths, np.inf)
    return np.sort(lengths, axis=1)[:, k - 1]


def naive_graph(points, k, sigma=None):
    """Dense union-symmetrized kNN graph: (W, degrees, A, L, sigma)."""
    points = np.asarray(points, dtype=np.float64)
    n = len(points)
    edges = set()
    for i, neighbors in enumerate(naive_knn(points, k)):
        for j in neighbors:
            edges.add((min(i, j), max(i, j)))
    lengths = {e: math.dist(points[e[0]], points[e[1]]) for e in edges}
    if sigma is None:
        sigma = sum(lengths.values()) / len(lengths)
        if sigma == 0.0:
            sigma = 1.0
    weights = np.zeros((n, n))
    for (a, b), d in lengths.items():
        w = math.exp(-min((d / sigma) ** 2, _EXP_CLAMP))
        weights[a, b] = weights[b, a] = w
    degrees = weights.sum(axis=1)
    transition = weights / degrees[:, None]
    laplacian = np.diag(degrees) - weights
    return weights, degrees, transition, laplacian, sigma


def naive_table(text, width):
    """Whitespace-separated rows of ``width`` finite floats, converted one token at a time.

    Blank lines and lines starting with ``#`` (after stripping) are skipped.
    Returns ``(rows, None)`` for a valid text, or ``(None, lineno)`` with the
    1-based number of the first line holding the wrong token count, a token
    ``float`` rejects, or a non-finite value.
    """
    rows = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        tokens = line.split()
        if not tokens or tokens[0].startswith("#"):
            continue
        try:
            row = [float(token) for token in tokens]
        except ValueError:
            return None, lineno
        if len(row) != width or not all(math.isfinite(v) for v in row):
            return None, lineno
        rows.append(row)
    return np.array(rows, dtype=np.float64).reshape(-1, width), None


def _matvec(matrix, signal):
    n = len(signal)
    return np.array([sum(matrix[i][j] * signal[j] for j in range(n)) for i in range(n)])


def naive_features(points, k, sigma=None, gamma=0.5, r=0.1):
    """All fourteen features via explicit loops and a dense linear solve."""
    points = np.asarray(points, dtype=np.float64)
    n = len(points)
    _, _, transition, laplacian, _ = naive_graph(points, k, sigma)

    pbar = np.column_stack([_matvec(transition, points[:, c]) for c in range(3)])
    ptilde = np.column_stack([_matvec(laplacian, points[:, c]) for c in range(3)])
    v = np.array([math.dist(points[i], pbar[i]) for i in range(n)])
    vbar = _matvec(transition, v)
    vtilde = _matvec(laplacian, v)

    centroid = points.mean(axis=0)
    cdist = np.array([math.dist(points[i], centroid) for i in range(n)])
    ball = naive_ball_count(points, r)

    qstar = np.linalg.solve(np.eye(n) + gamma * laplacian, points)
    h = np.array([math.dist(points[i], qstar[i]) for i in range(n)])
    hbar = _matvec(transition, h)
    htilde = _matvec(laplacian, h)

    return np.column_stack(
        [v, pbar[:, 0], pbar[:, 1], pbar[:, 2], ptilde[:, 0], ptilde[:, 1], ptilde[:, 2],
         vbar, vtilde, cdist, ball, h, hbar, htilde]
    )


def _beta_continued_fraction(a, b, x, max_iter=300, eps=1e-14):
    """Modified Lentz evaluation of the incomplete-beta continued fraction."""
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, max_iter + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < eps:
            return h
    raise RuntimeError("incomplete beta continued fraction did not converge")


def reg_inc_beta(a, b, x):
    """Regularized incomplete beta function I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log(1.0 - x)
    )
    front = math.exp(ln_front)
    # The continued fraction converges fast only on one side of the mean.
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_continued_fraction(a, b, x) / a
    return 1.0 - front * _beta_continued_fraction(b, a, 1.0 - x) / b


def t_two_sided_p(t_value, df):
    """P(|T| >= t) for Student's t: I_x(df/2, 1/2) at x = df / (df + t^2)."""
    x = df / (df + float(t_value) ** 2)
    return reg_inc_beta(df / 2.0, 0.5, x)


def ols_oracle(x, y, alpha=0.05):
    """Closed-form no-intercept OLS with t-tests from the normal equations.

    Returns a dict with coefficients, std_errors, t_stats, p_values,
    r_squared, and the significance mask at the given alpha.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    m, p = x.shape
    xtx = x.T @ x
    coef = np.linalg.solve(xtx, x.T @ y)
    resid = y - x @ coef
    rss = float(resid @ resid)
    df = m - p
    s2 = rss / df
    cov = s2 * np.linalg.inv(xtx)
    std_errors = np.sqrt(np.diag(cov))
    t_stats = coef / std_errors
    p_values = np.array([t_two_sided_p(t, df) for t in t_stats])
    tss = float(np.sum((y - y.mean()) ** 2))
    return {
        "coefficients": coef,
        "std_errors": std_errors,
        "t_stats": t_stats,
        "p_values": p_values,
        "r_squared": 1.0 - rss / tss,
        "significant": p_values < alpha,
    }
