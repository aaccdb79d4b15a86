"""Bundled coefficient presets for no-box score prediction.

The presets are published regression results: linear-model coefficients fit
externally against saliency derived from three classifiers (PointNet,
PointNet++, DGCNN), one row per top-N cutoff with N in {50, 100, 150, 200}.
In the source data insignificant coefficients (alpha = 0.05) are printed as
0, so a zero entry here means "not significant" and the values are kept
verbatim at their printed precision.

Averaged presets ``avg-N{50,100,150,200}`` take the element-wise mean of the
three per-classifier rows at the same N, counting insignificant entries as 0
and marking an index significant when any source row has it significant.

The published fits also report R^2 near 94 percent; those numbers describe
the original classifier-derived training data and are shipped here only as
reference metadata, since reproducing them would require the classifiers.
"""

from __future__ import annotations

import numpy as np

from .io import CoefficientSet
from .regression import average_coefficients

_MODELS = ("pointnet", "pointnet2", "dgcnn")
_TOP_NS = (50, 100, 150, 200)

# Verbatim published rows, c1..c14; printed 0 = insignificant at alpha 0.05.
_TABLES = {
    "pointnet": {
        50:  (-38.043, 0.007, 0.005, -0.009, 0, 0, 0, 0, 4.659, 0.648, 0.011, -3.554, 12.309, 0.196),
        100: (-44.032, 0.007, 0.006, -0.008, 0, 0, 0, 0, 5.113, 0.636, 0.011, -3.139, 11.733, 0.164),
        150: (-42.295, 0.007, 0.006, -0.007, 0, 0, 0, 0, 4.904, 0.623, 0.010, -3.055, 11.470, 0.160),
        200: (-41.451, 0.007, 0.005, -0.007, 0, 0, 0, 0, 4.819, 0.611, 0.010, -2.969, 11.207, 0.153),
    },
    "pointnet2": {
        50:  (-54.854, 0.009, 0.006, -0.007, 0, 0, 0, 8.859, 6.112, 0.649, 0.011, -2.665, 11.375, 0.122),
        100: (-49.452, 0.008, 0.005, -0.007, 0, 0, 0, 6.851, 5.544, 0.636, 0.010, -2.908, 11.370, 0.148),
        150: (-44.927, 0.008, -0.006, -0.008, 0, 0, 0, 3.120, 5.125, 0.624, 0.010, -3.067, 11.320, 0.161),
        200: (-43.109, 0.007, 0.005, -0.007, 0, 0, 0, 2.489, 4.938, 0.612, 0.010, -3.057, 11.091, 0.163),
    },
    "dgcnn": {
        50:  (-52.555, 0.006, 0.006, -0.008, 0, 0, 0, 10.169, 5.870, 0.648, 0.011, -3.058, 11.745, 0.157),
        100: (-46.105, 0.006, 0.005, -0.007, 0, 0, 0, 4.473, 5.241, 0.636, 0.011, -3.257, 11.818, 0.177),
        150: (-43.374, 0.007, 0.005, -0.007, 0, 0, 0, 3.352, 4.960, 0.623, 0.011, -3.179, 11.540, 0.173),
        200: (-41.795, 0.006, 0.004, -0.007, 0, 0, 0, 3.585, 4.806, 0.610, 0.011, -3.153, 11.330, 0.174),
    },
}

# R^2 of the published fits, in percent: reference metadata only, not
# reproducible without the classifiers the saliency came from.
REFERENCE_R2_PERCENT = {
    "pointnet-N50": 94.3, "pointnet-N100": 94.2, "pointnet-N150": 94.1, "pointnet-N200": 93.9,
    "pointnet2-N50": 94.3, "pointnet2-N100": 94.2, "pointnet2-N150": 94.1, "pointnet2-N200": 93.9,
    "dgcnn-N50": 94.4, "dgcnn-N100": 94.3, "dgcnn-N150": 94.2, "dgcnn-N200": 94.0,
}

# The one sign oddity in the source data, preserved verbatim.
_ANOMALY_NOTE = {
    "pointnet2-N150": (
        "c3 printed as -0.006 in the source data while neighboring rows are "
        "positive (possible sign typo); kept verbatim"
    ),
}


def _build_presets() -> dict:
    presets = {}
    for model in _MODELS:
        for n in _TOP_NS:
            name = f"{model}-N{n}"
            values = np.array(_TABLES[model][n], dtype=np.float64)
            provenance = f"{name} ({_ANOMALY_NOTE[name]})" if name in _ANOMALY_NOTE else name
            # Printed-zero convention: 0 marks an insignificant coefficient.
            presets[name] = CoefficientSet(values, values != 0.0, provenance)
    for n in _TOP_NS:
        avg = average_coefficients([presets[f"{model}-N{n}"] for model in _MODELS])
        provenance = f"avg-N{n} = mean of ({avg.provenance})"
        presets[f"avg-N{n}"] = CoefficientSet(avg.coefficients, avg.significant, provenance)
    return presets


# Built once: CoefficientSet is immutable, so every caller shares these instances.
_PRESETS = _build_presets()


def preset_names() -> tuple[str, ...]:
    """All bundled preset names, per-classifier rows first, then averages."""
    return tuple(_PRESETS)


def get_preset(name: str) -> CoefficientSet:
    """Bundled CoefficientSet by name, e.g. ``pointnet-N150`` or ``avg-N100``."""
    if name not in _PRESETS:
        known = ", ".join(_PRESETS)
        raise KeyError(f"unknown preset {name!r}; bundled presets: {known}")
    return _PRESETS[name]
