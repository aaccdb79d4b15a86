"""Score normalization, prediction, and drop-N point-removal attacks.

True per-point saliency values are min-max normalized into adversarial
scores in [0, 1]. Predicted scores come from a linear model over the
fourteen features, summed over its significant coefficients only; no
classifier access is needed. A drop-N attack removes the N highest-scoring
points. A seeded random-drop baseline and a top-N overlap metric support
head-to-head evaluation of predicted against true rankings.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .features import FeatureMatrix, extract_features
from .io import (
    NORMALIZED_ADVERSARIAL,
    PREDICTED,
    RAW_SALIENCY,
    CoefficientSet,
    PointCloud,
    ScoreVector,
)
from .io import _readonly, _to_units

_MASK64 = (1 << 64) - 1


@dataclass(frozen=True, eq=False)
class AttackResult:
    """Outcome of one drop-N attack.

    dropped_indices refer to the original cloud and, for score-driven
    attacks, run in descending score order with ties broken by ascending
    index. The retained cloud keeps the surviving points in their original
    relative order. scores is None for the random baseline.
    """

    dropped_indices: np.ndarray
    retained_cloud: PointCloud
    scores: ScoreVector | None

    def __post_init__(self):
        idx = _readonly(self.dropped_indices, np.int64)
        object.__setattr__(self, "dropped_indices", idx)
        if idx.ndim != 1:
            raise ValueError(f"dropped indices must be a 1-d vector, got shape {idx.shape}")
        if idx.size:
            if idx.min() < 0 or idx.max() >= self.n_total:
                raise ValueError("dropped indices out of range for the original cloud")
            if np.unique(idx).size != idx.size:
                raise ValueError("dropped indices contain duplicates")
        if self.scores is not None:
            if self.scores.n != self.n_total:
                raise ValueError("score vector length does not match the original cloud")
            vals = self.scores.values[idx]
            dv, di = np.diff(vals), np.diff(idx)
            if not np.all((dv < 0) | ((dv == 0) & (di > 0))):
                raise ValueError("dropped indices are not in descending score order")

    @property
    def n_dropped(self) -> int:
        return self.dropped_indices.size

    @property
    def n_total(self) -> int:
        return self.retained_cloud.n + self.n_dropped

    @property
    def retained_indices(self) -> np.ndarray:
        """Original indices of the surviving points, ascending."""
        return np.setdiff1d(np.arange(self.n_total), self.dropped_indices)


def normalize_scores(raw: ScoreVector) -> ScoreVector:
    """Min-max normalize raw saliency to [0, 1]; all-equal input maps to zeros."""
    if raw.kind != RAW_SALIENCY:
        raise ValueError(f"expected raw-saliency scores, got kind {raw.kind!r}")
    values = _to_units(raw.values)[0]  # in units, no difference of scores overflows
    lo, hi = values.min(), values.max()
    if hi == lo:
        z = np.zeros(raw.n)
    else:
        z = (values - lo) / (hi - lo)
    return ScoreVector(z, NORMALIZED_ADVERSARIAL)


def predict_scores(features: FeatureMatrix, coeffs: CoefficientSet) -> ScoreVector:
    """Linear predicted score per point. Insignificant coefficients are stored
    as zero, so the product sums over the significant set only."""
    return ScoreVector(features.values @ coeffs.coefficients, PREDICTED)


def rank_top_n(scores: ScoreVector, n_top: int) -> np.ndarray:
    """Indices of the n_top largest scores, descending, ties by ascending index."""
    if not 0 <= n_top <= scores.n:
        raise ValueError(f"top count must satisfy 0 <= N <= {scores.n}, got {n_top}")
    return np.argsort(-scores.values, kind="stable")[:n_top]


def _drop(cloud: PointCloud, n_drop: int, choose) -> AttackResult:
    """Check 0 <= n_drop < n, then drop the indices of ``choose()`` -> (indices, scores or None)."""
    if not 0 <= n_drop < cloud.n:
        raise ValueError(f"drop count must satisfy 0 <= N < {cloud.n}, got {n_drop}")
    dropped, scores = choose()
    return AttackResult(dropped, PointCloud(np.delete(cloud.points, dropped, axis=0)), scores)


def drop_attack(
    cloud: PointCloud, coeffs: CoefficientSet, n_drop: int, **feature_options
) -> AttackResult:
    """Remove the n_drop points with the highest predicted score.

    Features come from extract_features(cloud, **feature_options) on the
    full input cloud; the surviving points keep their original relative order.
    """

    def by_score():
        predicted = predict_scores(extract_features(cloud, **feature_options), coeffs)
        return rank_top_n(predicted, n_drop), predicted

    return _drop(cloud, n_drop, by_score)


def _splitmix64(state: int) -> tuple[int, int]:
    """One step of the SplitMix64 generator: (new state, 64-bit output)."""
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return state, z ^ (z >> 31)


def random_drop(cloud: PointCloud, n_drop: int, seed: int) -> AttackResult:
    """Drop n_drop distinct uniformly random points.

    The generator is SplitMix64 feeding a partial Fisher-Yates shuffle with
    rejection sampling, implemented here so that the seed-to-indices mapping
    is fixed by this package rather than by any library's RNG evolution.
    Identical (cloud size, n_drop, seed) always yield identical index sets.
    """

    def shuffled():
        n = cloud.n
        state = int(seed) & _MASK64
        pool = list(range(n))
        for i in range(n_drop):
            span = n - i
            # Rejection sampling keeps draws modulo-bias-free.
            limit = (1 << 64) - ((1 << 64) % span)
            while True:
                state, draw = _splitmix64(state)
                if draw < limit:
                    break
            j = i + draw % span
            pool[i], pool[j] = pool[j], pool[i]
        return np.array(pool[:n_drop], dtype=np.int64), None

    return _drop(cloud, n_drop, shuffled)


def overlap(set_a, set_b) -> float:
    """Percentage overlap 100 * |A intersect B| / N of two equal-size index sets."""
    a, b = set(map(int, set_a)), set(map(int, set_b))
    if len(a) != len(set_a) or len(b) != len(set_b):
        raise ValueError("index sets contain duplicates")
    if len(a) != len(b):
        raise ValueError(f"index sets differ in size: {len(a)} vs {len(b)}")
    if not a:
        raise ValueError("cannot compare empty index sets")
    return 100.0 * len(a & b) / len(a)


def synthetic_score_oracle(
    features: FeatureMatrix, planted: CoefficientSet, noise_sd: float, seed: int
) -> ScoreVector:
    """Stand-in for classifier-derived saliency: planted linear model plus noise.

    raw_i = sum_j planted_j * f_j^i + eps_i with eps ~ Normal(0, noise_sd),
    deterministic for a given seed.
    """
    if noise_sd < 0:
        raise ValueError(f"noise_sd must be non-negative, got {noise_sd}")
    clean = features.values @ planted.coefficients
    noise = np.random.default_rng(seed).normal(0.0, noise_sd, features.n) if noise_sd else 0.0
    return ScoreVector(clean + noise, RAW_SALIENCY)
