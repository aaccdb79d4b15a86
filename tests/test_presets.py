"""Bundled coefficient presets and their published values."""

import numpy as np
import pytest

from pointdrop import (
    get_preset,
    load_coefficients,
    preset_names,
    write_coefficients,
)
from pointdrop.presets import REFERENCE_R2_PERCENT

# Independent transcription of the published rows used as the cross-check.
EXPECTED_ROWS = {
    "pointnet-N50": [-38.043, 0.007, 0.005, -0.009, 0, 0, 0, 0, 4.659, 0.648, 0.011, -3.554, 12.309, 0.196],
    "pointnet-N100": [-44.032, 0.007, 0.006, -0.008, 0, 0, 0, 0, 5.113, 0.636, 0.011, -3.139, 11.733, 0.164],
    "pointnet-N150": [-42.295, 0.007, 0.006, -0.007, 0, 0, 0, 0, 4.904, 0.623, 0.010, -3.055, 11.470, 0.160],
    "pointnet-N200": [-41.451, 0.007, 0.005, -0.007, 0, 0, 0, 0, 4.819, 0.611, 0.010, -2.969, 11.207, 0.153],
    "pointnet2-N50": [-54.854, 0.009, 0.006, -0.007, 0, 0, 0, 8.859, 6.112, 0.649, 0.011, -2.665, 11.375, 0.122],
    "pointnet2-N100": [-49.452, 0.008, 0.005, -0.007, 0, 0, 0, 6.851, 5.544, 0.636, 0.010, -2.908, 11.370, 0.148],
    "pointnet2-N150": [-44.927, 0.008, -0.006, -0.008, 0, 0, 0, 3.120, 5.125, 0.624, 0.010, -3.067, 11.320, 0.161],
    "pointnet2-N200": [-43.109, 0.007, 0.005, -0.007, 0, 0, 0, 2.489, 4.938, 0.612, 0.010, -3.057, 11.091, 0.163],
    "dgcnn-N50": [-52.555, 0.006, 0.006, -0.008, 0, 0, 0, 10.169, 5.870, 0.648, 0.011, -3.058, 11.745, 0.157],
    "dgcnn-N100": [-46.105, 0.006, 0.005, -0.007, 0, 0, 0, 4.473, 5.241, 0.636, 0.011, -3.257, 11.818, 0.177],
    "dgcnn-N150": [-43.374, 0.007, 0.005, -0.007, 0, 0, 0, 3.352, 4.960, 0.623, 0.011, -3.179, 11.540, 0.173],
    "dgcnn-N200": [-41.795, 0.006, 0.004, -0.007, 0, 0, 0, 3.585, 4.806, 0.610, 0.011, -3.153, 11.330, 0.174],
}


class TestBundledRows:
    def test_names_complete(self):
        names = preset_names()
        assert len(names) == 16
        for model in ("pointnet", "pointnet2", "dgcnn", "avg"):
            for n in (50, 100, 150, 200):
                assert f"{model}-N{n}" in names

    @pytest.mark.parametrize("name", sorted(EXPECTED_ROWS))
    def test_row_verbatim(self, name):
        preset = get_preset(name)
        np.testing.assert_array_equal(preset.coefficients, EXPECTED_ROWS[name])
        # Printed zeros mark insignificance; everything else is significant.
        np.testing.assert_array_equal(
            preset.significant, np.asarray(EXPECTED_ROWS[name]) != 0.0
        )

    def test_pointnet_insignificant_block(self):
        for n in (50, 100, 150, 200):
            preset = get_preset(f"pointnet-N{n}")
            assert not preset.significant[4:8].any()

    def test_sign_anomaly_flagged(self):
        preset = get_preset("pointnet2-N150")
        assert preset.coefficients[2] == -0.006
        assert "typo" in preset.provenance
        assert "verbatim" in preset.provenance

    def test_reference_metadata(self):
        assert set(REFERENCE_R2_PERCENT) == set(EXPECTED_ROWS)
        assert all(93.0 < r2 < 95.0 for r2 in REFERENCE_R2_PERCENT.values())


class TestAveragedPresets:
    def test_avg_n100_values(self):
        avg = get_preset("avg-N100")
        assert avg.coefficients[0] == pytest.approx((-44.032 - 49.452 - 46.105) / 3, abs=1e-12)
        assert avg.coefficients[7] == pytest.approx((0.0 + 6.851 + 4.473) / 3, abs=1e-12)
        # c5..c7 are insignificant in every source row.
        assert not avg.significant[4:7].any()
        assert avg.significant[7]

    def test_avg_provenance_concatenates(self):
        avg = get_preset("avg-N50")
        for source in ("pointnet-N50", "pointnet2-N50", "dgcnn-N50"):
            assert source in avg.provenance

    @pytest.mark.parametrize("n", [50, 100, 150, 200])
    def test_avg_is_elementwise_mean(self, n):
        avg = get_preset(f"avg-N{n}")
        stack = np.array(
            [get_preset(f"{m}-N{n}").coefficients for m in ("pointnet", "pointnet2", "dgcnn")]
        )
        np.testing.assert_allclose(avg.coefficients, stack.mean(axis=0), atol=1e-15)


class TestRoundTrip:
    @pytest.mark.parametrize("name", ["pointnet-N150", "pointnet2-N150", "avg-N200"])
    def test_write_load_identity(self, name):
        preset = get_preset(name)
        again = load_coefficients(write_coefficients(preset))
        np.testing.assert_array_equal(again.coefficients, preset.coefficients)
        np.testing.assert_array_equal(again.significant, preset.significant)
        assert again.provenance == preset.provenance

    def test_unknown_preset(self):
        with pytest.raises(KeyError, match="unknown preset"):
            get_preset("pointnet-N75")
        with pytest.raises(KeyError, match="unknown preset"):
            get_preset("avg-N999")

    @pytest.mark.parametrize(
        "name",
        ["pointnet-N0150", "avg-N+100", "avg-N 100", "dgcnn-N\u0665\u0660"],
        ids=["leading-zero", "plus-sign", "space", "arabic-indic-digits"],
    )
    def test_only_listed_names_resolve(self, name):
        # Each of these parses to a bundled N with int(); none is a listed name.
        assert name not in preset_names()
        with pytest.raises(KeyError, match="unknown preset"):
            get_preset(name)
