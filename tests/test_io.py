"""Parsing, serialization, and cloud normalization."""

import json

import numpy as np
import pytest

from pointdrop import (
    CoefficientSet,
    PointCloud,
    ScoreVector,
    load_coefficients,
    normalize_cloud,
    parse_scores,
    parse_xyz,
    write_coefficients,
    write_scores,
    write_xyz,
)
from pointdrop.io import NORMALIZED_ADVERSARIAL, RAW_SALIENCY


class TestParseXyz:
    def test_two_points(self):
        cloud = parse_xyz("0 0 0\n1 0 0\n")
        assert cloud.n == 2
        np.testing.assert_array_equal(cloud.points, [[0, 0, 0], [1, 0, 0]])

    def test_comments_and_formats(self):
        cloud = parse_xyz("1.5 -2 3e-1\n0 0 0\n# c\n")
        assert cloud.n == 2
        np.testing.assert_allclose(cloud.points[0], [1.5, -2.0, 0.3])

    def test_blank_lines_skipped(self):
        cloud = parse_xyz("\n1 2 3\n\n4 5 6\n\n")
        assert cloud.n == 2

    def test_malformed_line_reports_number(self):
        with pytest.raises(ValueError, match="line 1"):
            parse_xyz("0 0\n")

    def test_malformed_later_line(self):
        with pytest.raises(ValueError, match="line 3"):
            parse_xyz("0 0 0\n1 1 1\n2 2\n")

    def test_non_numeric(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_xyz("0 0 0\n0 zero 0\n")

    def test_too_few_points(self):
        with pytest.raises(ValueError, match="at least 2"):
            parse_xyz("1 2 3\n")

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            parse_xyz("0 0 0\ninf 0 0\n")


class TestWriteXyz:
    def test_round_trip_exact(self):
        cloud = PointCloud([[0.1, -2.0, 3e-1], [1 / 3, 1e-17, 5.5]])
        again = parse_xyz(write_xyz(cloud))
        np.testing.assert_array_equal(again.points, cloud.points)

    def test_round_trip_random(self):
        rng = np.random.default_rng(3)
        cloud = PointCloud(rng.normal(size=(40, 3)) * 10.0 ** rng.integers(-8, 8, (40, 1)))
        again = parse_xyz(write_xyz(cloud))
        np.testing.assert_array_equal(again.points, cloud.points)

    def test_digits(self):
        text = write_xyz(PointCloud([[0.5, 0, 0], [1, 2, 3]]))
        first = text.splitlines()[0].split()[0]
        mantissa = first.split("e")[0].replace("-", "").replace(".", "")
        assert len(mantissa) >= 12


class TestPointCloud:
    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            PointCloud([[0, 0, 0], [np.nan, 0, 0]])

    def test_shape_enforced(self):
        with pytest.raises(ValueError):
            PointCloud([[0, 0], [1, 1]])

    def test_immutable(self):
        cloud = PointCloud([[0, 0, 0], [1, 1, 1]])
        with pytest.raises(ValueError):
            cloud.points[0, 0] = 5.0


class TestScores:
    def test_parse(self):
        sv = parse_scores("3\n1\n2\n", 3)
        np.testing.assert_array_equal(sv.values, [3, 1, 2])
        assert sv.kind == RAW_SALIENCY

    def test_count_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            parse_scores("1\n2\n", 3)

    def test_non_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            parse_scores("nan\n1\n", 2)

    def test_count_check_optional(self):
        sv = parse_scores("# header\n3\n\n1\n")
        np.testing.assert_array_equal(sv.values, [3, 1])

    def test_round_trip(self):
        sv = ScoreVector([0.1, 1 / 7, 2e-5], RAW_SALIENCY)
        again = parse_scores(write_scores(sv), 3)
        np.testing.assert_array_equal(again.values, sv.values)

    def test_normalized_range_enforced(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            ScoreVector([0.5, 1.2], NORMALIZED_ADVERSARIAL)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            ScoreVector([1.0], "mystery")


class TestCoefficients:
    def _doc(self, values, significant):
        coeffs = CoefficientSet(values, significant, "unit-test")
        return write_coefficients(coeffs)

    def test_round_trip(self):
        values = np.zeros(14)
        values[[0, 8, 12]] = [-44.032, 5.113, 11.733]
        sig = values != 0
        doc = self._doc(values, sig)
        again = load_coefficients(doc)
        np.testing.assert_array_equal(again.coefficients, values)
        np.testing.assert_array_equal(again.significant, sig)
        assert again.provenance == "unit-test"

    def test_insignificant_nonzero_rejected(self):
        doc = self._doc(np.zeros(14), np.zeros(14, dtype=bool))
        bad = doc.replace('"value": 0.0', '"value": 0.3', 1)
        with pytest.raises(ValueError):
            load_coefficients(bad)

    def test_significant_zero_accepted(self):
        sig = np.zeros(14, dtype=bool)
        sig[4] = True
        coeffs = load_coefficients(self._doc(np.zeros(14), sig))
        assert coeffs.significant[4]
        assert coeffs.coefficients[4] == 0.0

    def test_missing_index_rejected(self):
        doc = self._doc(np.zeros(14), np.zeros(14, dtype=bool))
        truncated = doc.replace('"index": 14,', '"index": 13,')
        with pytest.raises(ValueError, match="missing|once|duplicate"):
            load_coefficients(truncated)

    @pytest.mark.parametrize("entries", ["5", "null"])
    def test_coefficients_must_be_a_list(self, entries):
        with pytest.raises(ValueError, match="'coefficients' list"):
            load_coefficients(f'{{"coefficients": {entries}}}')

    def test_deep_nesting_named(self):
        depth = 100_000
        with pytest.raises(ValueError, match="invalid coefficient document"):
            load_coefficients("[" * depth + "]" * depth)

    def _entry_doc(self, **override):
        doc = json.loads(self._doc(np.zeros(14), np.zeros(14, dtype=bool)))
        doc["coefficients"][0].update(override)
        return json.dumps(doc)

    def test_significance_must_be_boolean(self):
        with pytest.raises(ValueError, match="JSON boolean"):
            load_coefficients(self._entry_doc(significant="false"))

    @pytest.mark.parametrize("index", [1.7, True])
    def test_index_must_be_integer(self, index):
        with pytest.raises(ValueError, match="JSON integer"):
            load_coefficients(self._entry_doc(index=index))

    @pytest.mark.parametrize(
        "value", ["0.5", True, None, 10**400], ids=["string", "bool", "null", "huge-int"]
    )
    def test_value_must_be_finite_number(self, value):
        with pytest.raises(ValueError, match="finite JSON number"):
            load_coefficients(self._entry_doc(value=value, significant=True))

    @pytest.mark.parametrize("provenance", [None, [1, 2], 3], ids=["null", "list", "number"])
    def test_provenance_must_be_string(self, provenance):
        doc = json.loads(self._doc(np.zeros(14), np.zeros(14, dtype=bool)))
        doc["provenance"] = provenance
        with pytest.raises(ValueError, match="provenance must be a JSON string"):
            load_coefficients(json.dumps(doc))

    def test_provenance_optional(self):
        doc = json.loads(self._doc(np.zeros(14), np.zeros(14, dtype=bool)))
        del doc["provenance"]
        assert load_coefficients(json.dumps(doc)).provenance == ""

    def test_constructor_invariant(self):
        values = np.zeros(14)
        values[2] = 1.0
        with pytest.raises(ValueError, match="c3"):
            CoefficientSet(values, np.zeros(14, dtype=bool), "bad")


class TestNormalizeCloud:
    def test_symmetric_pair(self):
        out = normalize_cloud(PointCloud([[0, 0, 0], [2, 0, 0]]))
        np.testing.assert_allclose(out.points, [[-1, 0, 0], [1, 0, 0]], atol=1e-15)

    def test_centroid_and_scale(self):
        rng = np.random.default_rng(11)
        out = normalize_cloud(PointCloud(rng.normal(2.0, 3.0, (50, 3))))
        assert np.abs(out.points.mean(axis=0)).max() < 1e-12
        assert abs(np.linalg.norm(out.points, axis=1).max() - 1.0) < 1e-12

    def test_idempotent(self):
        rng = np.random.default_rng(12)
        once = normalize_cloud(PointCloud(rng.normal(size=(20, 3))))
        twice = normalize_cloud(once)
        assert np.abs(twice.points - once.points).max() < 1e-12

    def test_degenerate(self):
        with pytest.raises(ValueError, match="degenerate"):
            normalize_cloud(PointCloud([[5, 5, 5], [5, 5, 5]]))

    @pytest.mark.parametrize("e", [-1000, -570, 540, 1000])
    def test_power_of_two_scale_invariant(self, e):
        # The squares are taken in power-of-two units, so no scale underflows
        # to a "degenerate" cloud or overflows to the all-zero one.
        pts = np.random.default_rng(13).normal(2.0, 3.0, (1024, 3))
        unit = normalize_cloud(PointCloud(pts))
        scaled = normalize_cloud(PointCloud(np.ldexp(pts, e)))
        np.testing.assert_array_equal(scaled.points, unit.points)
