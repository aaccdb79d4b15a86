"""Graph-signal point-cloud features, saliency regression, and drop-N attacks.

The pipeline: build a kNN graph over a 3D point cloud, extract fourteen
per-point geometric features, relate them to adversarial saliency with a
no-intercept linear model, and remove the points the model ranks highest.
No classifier access is required at attack time.
"""

from .attack import (
    AttackResult,
    drop_attack,
    normalize_scores,
    overlap,
    predict_scores,
    random_drop,
    rank_top_n,
    synthetic_score_oracle,
)
from .features import (
    FEATURE_NAMES,
    FeatureMatrix,
    ball_count,
    extract_features,
    features_to_csv,
    lpf_solve,
)
from .graph import NeighborhoodGraph, build_knn_graph
from .io import (
    NUM_FEATURES,
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
from .presets import REFERENCE_R2_PERCENT, get_preset, preset_names
from .regression import (
    RegressionFit,
    average_coefficients,
    fit_mlr,
    fit_report,
    select_top_targets,
)

__version__ = "0.1.0"

__all__ = [
    "AttackResult",
    "CoefficientSet",
    "FEATURE_NAMES",
    "FeatureMatrix",
    "NUM_FEATURES",
    "NeighborhoodGraph",
    "PointCloud",
    "REFERENCE_R2_PERCENT",
    "RegressionFit",
    "ScoreVector",
    "average_coefficients",
    "ball_count",
    "build_knn_graph",
    "drop_attack",
    "extract_features",
    "features_to_csv",
    "fit_mlr",
    "fit_report",
    "get_preset",
    "load_coefficients",
    "lpf_solve",
    "normalize_cloud",
    "normalize_scores",
    "overlap",
    "parse_scores",
    "parse_xyz",
    "predict_scores",
    "preset_names",
    "random_drop",
    "rank_top_n",
    "select_top_targets",
    "synthetic_score_oracle",
    "write_coefficients",
    "write_scores",
    "write_xyz",
]
