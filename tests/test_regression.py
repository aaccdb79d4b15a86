"""OLS fitting, inference, top-target selection, and coefficient averaging."""

import numpy as np
import pytest

import oracles
from pointdrop import (
    CoefficientSet,
    FeatureMatrix,
    ScoreVector,
    average_coefficients,
    fit_mlr,
    fit_report,
    select_top_targets,
)
from pointdrop.io import NORMALIZED_ADVERSARIAL, RAW_SALIENCY


def feature_block(rng, n):
    """A FeatureMatrix-shaped random design obeying the column invariants."""
    vals = rng.normal(size=(n, 14))
    vals[:, [0, 7, 9, 11, 12]] = np.abs(vals[:, [0, 7, 9, 11, 12]])
    vals[:, 10] = rng.integers(1, 9, size=n)
    return FeatureMatrix(vals)


class TestFitMlr:
    def test_noiseless_planted_exact(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(60, 14))
        y = 2.0 * x[:, 0] - 3.0 * x[:, 1]
        fit = fit_mlr(x, y)
        assert fit.coefficients[0] == pytest.approx(2.0, abs=1e-8)
        assert fit.coefficients[1] == pytest.approx(-3.0, abs=1e-8)
        assert np.abs(fit.coefficients[2:]).max() < 1e-8
        # Zero-residual guard: planted coefficients get p = 0, the rest p = 1.
        np.testing.assert_array_equal(fit.p_values[:2], [0.0, 0.0])
        np.testing.assert_array_equal(fit.p_values[2:], np.ones(12))
        assert fit.r_squared == pytest.approx(1.0, abs=1e-10)
        assert list(fit.significant[:2]) == [True, True]
        assert not fit.significant[2:].any()

    def test_noisy_planted_recovery(self):
        rng = np.random.default_rng(42)
        planted = np.array(
            [1.5, -2.0, 0.75, 0.0, 3.0, 0.0, -1.25, 0.5, 0.0, 2.5, -0.3, 0.0, 1.0, -1.75]
        )
        x = rng.normal(size=(10000, 14))
        y = x @ planted + rng.normal(0.0, 0.01, 10000)
        fit = fit_mlr(x, y)
        assert np.abs(fit.coefficients - planted).max() < 1e-2
        assert fit.r_squared > 0.99
        ref = oracles.ols_oracle(x, y)
        np.testing.assert_allclose(fit.coefficients, ref["coefficients"], atol=1e-9)
        np.testing.assert_allclose(fit.std_errors, ref["std_errors"], atol=1e-9)

    def test_small_sample_matches_closed_form_oracle(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(30, 14))
        y = x @ rng.normal(size=14) + rng.normal(0.0, 0.5, 30)
        fit = fit_mlr(x, y)
        ref = oracles.ols_oracle(x, y)
        np.testing.assert_allclose(fit.t_stats, ref["t_stats"], atol=1e-9)
        np.testing.assert_allclose(fit.p_values, ref["p_values"], atol=1e-9)
        assert fit.r_squared == pytest.approx(ref["r_squared"], abs=1e-12)
        np.testing.assert_array_equal(fit.significant, ref["significant"])

    def test_target_scaling_equivariance(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(100, 14))
        y = x @ rng.normal(size=14) + rng.normal(0.0, 0.2, 100)
        base = fit_mlr(x, y)
        scaled = fit_mlr(x, 37.5 * y)
        np.testing.assert_allclose(scaled.coefficients, 37.5 * base.coefficients, rtol=1e-9)
        np.testing.assert_allclose(scaled.t_stats, base.t_stats, rtol=1e-9)
        np.testing.assert_allclose(scaled.p_values, base.p_values, atol=1e-9)
        np.testing.assert_array_equal(scaled.significant, base.significant)
        # The targets are fitted in power-of-two units: at 2^-560 (2^520) y @ y
        # and the RSS would underflow (overflow), yet only the coefficients
        # and standard errors move, exactly.
        for e in (-560, 520):
            fit = fit_mlr(x, np.ldexp(y, e))
            np.testing.assert_array_equal(fit.coefficients, np.ldexp(base.coefficients, e))
            np.testing.assert_array_equal(fit.std_errors, np.ldexp(base.std_errors, e))
            np.testing.assert_array_equal(fit.p_values, base.p_values)
            assert fit.r_squared == base.r_squared
        # So is each design column: at 2^560 (2^-560) diag((X^T X)^-1) would
        # underflow (overflow), giving p = 0 (p = 1) for every term.
        for e in (560, -560, np.arange(14) * 80 - 560):
            fit = fit_mlr(np.ldexp(x, e), y)
            np.testing.assert_array_equal(fit.coefficients, np.ldexp(base.coefficients, -e))
            np.testing.assert_array_equal(fit.std_errors, np.ldexp(base.std_errors, -e))
            np.testing.assert_array_equal(fit.p_values, base.p_values)
            assert fit.r_squared == base.r_squared

    def test_permutation_invariance(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(80, 14))
        y = x @ rng.normal(size=14) + rng.normal(0.0, 0.1, 80)
        perm = rng.permutation(80)
        a = fit_mlr(x, y)
        b = fit_mlr(x[perm], y[perm])
        np.testing.assert_allclose(a.coefficients, b.coefficients, atol=1e-10)
        np.testing.assert_allclose(a.p_values, b.p_values, atol=1e-10)

    def test_duplication_keeps_coefficients(self):
        rng = np.random.default_rng(10)
        x = rng.normal(size=(50, 14))
        y = x @ rng.normal(size=14) + rng.normal(0.0, 0.1, 50)
        once = fit_mlr(x, y)
        twice = fit_mlr(np.vstack([x, x]), np.concatenate([y, y]))
        np.testing.assert_allclose(twice.coefficients, once.coefficients, atol=1e-10)
        assert not np.allclose(twice.t_stats, once.t_stats)

    def test_rank_deficient_reports_columns(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(50, 14))
        x[:, 5] = 2.0 * x[:, 2]
        y = rng.normal(size=50)
        with pytest.raises(ValueError, match="rank-deficient") as err:
            fit_mlr(x, y)
        assert "f3" in str(err.value) or "f6" in str(err.value)

    def test_too_few_samples(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(14, 14))
        with pytest.raises(ValueError, match="more than 14"):
            fit_mlr(x, np.zeros(14))

    def test_report_contents(self):
        rng = np.random.default_rng(14)
        x = rng.normal(size=(40, 14))
        y = x @ rng.normal(size=14) + rng.normal(0.0, 0.3, 40)
        fit = fit_mlr(x, y)
        text = fit_report(fit)
        assert "f1" in text and "f14" in text
        assert "R^2" in text
        assert "samples = 40" in text
        assert "alpha = 0.05" in text

    def test_to_coefficient_set_zeroes_insignificant(self):
        rng = np.random.default_rng(15)
        x = rng.normal(size=(500, 14))
        planted = np.zeros(14)
        planted[[0, 4]] = [2.0, -1.0]
        y = x @ planted + rng.normal(0.0, 0.05, 500)
        coeffs = fit_mlr(x, y).to_coefficient_set("test-fit")
        assert coeffs.coefficients[0] != 0.0
        for j in range(14):
            if not coeffs.significant[j]:
                assert coeffs.coefficients[j] == 0.0
        assert coeffs.provenance == "test-fit"

    def test_input_validation(self):
        rng = np.random.default_rng(13)
        x = rng.normal(size=(20, 14))
        y = rng.normal(size=20)
        with pytest.raises(ValueError, match="design"):
            fit_mlr(np.zeros((20, 13)), y)
        with pytest.raises(ValueError, match="design"):
            fit_mlr(x, y[:19])
        nan_row = x.copy()
        nan_row[3] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            fit_mlr(nan_row, y)
        inf_target = y.copy()
        inf_target[5] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            fit_mlr(x, inf_target)


class TestSelectTopTargets:
    def test_selects_largest(self):
        rng = np.random.default_rng(16)
        feats = feature_block(rng, 3)
        scores = ScoreVector([0.0, 1.0, 0.5], NORMALIZED_ADVERSARIAL)
        x, y = select_top_targets(scores, feats, 2)
        assert y.tolist() == [1.0, 0.5]
        np.testing.assert_array_equal(x, feats.values[[1, 2]])

    def test_all_points(self):
        rng = np.random.default_rng(17)
        feats = feature_block(rng, 5)
        scores = ScoreVector(np.linspace(0, 1, 5), NORMALIZED_ADVERSARIAL)
        x, y = select_top_targets(scores, feats, 5)
        assert x.shape == (5, 14) and y.shape == (5,)

    def test_tie_breaks_to_lower_index(self):
        rng = np.random.default_rng(18)
        feats = feature_block(rng, 3)
        scores = ScoreVector([1.0, 1.0, 0.0], NORMALIZED_ADVERSARIAL)
        x, _ = select_top_targets(scores, feats, 1)
        np.testing.assert_array_equal(x, feats.values[[0]])

    def test_requires_normalized_kind(self):
        rng = np.random.default_rng(19)
        feats = feature_block(rng, 3)
        with pytest.raises(ValueError, match="normalized-adversarial"):
            select_top_targets(ScoreVector([1.0, 2.0, 3.0], RAW_SALIENCY), feats, 2)

    def test_n_too_large(self):
        rng = np.random.default_rng(20)
        feats = feature_block(rng, 3)
        scores = ScoreVector([0.1, 0.2, 0.3], NORMALIZED_ADVERSARIAL)
        with pytest.raises(ValueError, match="N"):
            select_top_targets(scores, feats, 4)


class TestAverageCoefficients:
    def _set(self, pairs, provenance):
        values = np.zeros(14)
        sig = np.zeros(14, dtype=bool)
        for idx, value in pairs.items():
            values[idx - 1] = value
            sig[idx - 1] = True
        return CoefficientSet(values, sig, provenance)

    def test_three_way_mean(self):
        a = self._set({1: -44.032, 9: 5.113}, "a")
        b = self._set({1: -49.452, 8: 6.851}, "b")
        c = self._set({1: -46.105, 8: 4.473}, "c")
        avg = average_coefficients([a, b, c])
        assert avg.coefficients[0] == pytest.approx((-44.032 - 49.452 - 46.105) / 3, abs=1e-12)
        # Insignificant entries count as zero in the mean.
        assert avg.coefficients[7] == pytest.approx((0.0 + 6.851 + 4.473) / 3, abs=1e-12)
        assert avg.significant[7]
        assert avg.significant[8]
        assert not avg.significant[2]
        assert avg.provenance == "a + b + c"

    def test_single_set_identity(self):
        a = self._set({3: 1.25}, "solo")
        avg = average_coefficients([a])
        np.testing.assert_array_equal(avg.coefficients, a.coefficients)
        np.testing.assert_array_equal(avg.significant, a.significant)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            average_coefficients([])
