"""Reading, writing, and validating point clouds, score vectors, and coefficient sets.

Text formats:
  * ``.xyz`` clouds: one point per line, three whitespace-separated decimals,
    ``#``-prefixed comment lines and blank lines skipped.
  * score files: one decimal per line.
  * coefficient documents: JSON with ``provenance`` and a ``coefficients``
    list of ``{"index", "value", "significant"}`` records covering 1..14.

All serialized numbers carry 17 significant digits, so a write/parse cycle
is bit-exact for float64. The writers format blocks of rows with one ``%``
operation each, byte for byte what ``format_number`` gives.

The readers share one blank/comment rule (``_data_lines``). Each first tries
a fast path: split every data line and convert all tokens in one numpy call,
which parses each token as Python's ``float`` does. The fast path returns
only a complete table of the right width with finite values; on anything
else (a ragged row, a bad token, a non-finite value, the wrong column count)
it gives up and the per-line loop runs instead. That loop is the only source
of the numbered error messages, so both paths accept the same texts and
return the same bits.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass

import numpy as np

NUM_FEATURES = 14

RAW_SALIENCY = "raw-saliency"
NORMALIZED_ADVERSARIAL = "normalized-adversarial"
PREDICTED = "predicted"
SCORE_KINDS = (RAW_SALIENCY, NORMALIZED_ADVERSARIAL, PREDICTED)


def _readonly(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=np.float64)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class PointCloud:
    """An n-by-3 array of finite xyz coordinates, immutable after construction.

    File ingestion requires n >= 2; attack outputs may transiently hold a
    single surviving point, so the constructor itself only requires n >= 1.
    """

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise ValueError(f"point cloud must have shape (n, 3), got {pts.shape}")
        if pts.shape[0] < 1:
            raise ValueError("point cloud must contain at least one point")
        if not np.all(np.isfinite(pts)):
            raise ValueError("point cloud contains non-finite coordinates")
        object.__setattr__(self, "points", _readonly(pts))

    @property
    def n(self) -> int:
        return self.points.shape[0]


@dataclass(frozen=True, eq=False)
class ScoreVector:
    """Per-point scores of a given kind, paired with a cloud of the same length."""

    values: np.ndarray
    kind: str

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.ndim != 1:
            raise ValueError(f"scores must be a 1-d vector, got shape {vals.shape}")
        if not np.all(np.isfinite(vals)):
            raise ValueError("scores contain non-finite values")
        if self.kind not in SCORE_KINDS:
            raise ValueError(f"unknown score kind {self.kind!r}; expected one of {SCORE_KINDS}")
        if self.kind == NORMALIZED_ADVERSARIAL and vals.size:
            if vals.min() < 0.0 or vals.max() > 1.0:
                raise ValueError("normalized-adversarial scores must lie in [0, 1]")
        object.__setattr__(self, "values", _readonly(vals))

    @property
    def n(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True, eq=False)
class CoefficientSet:
    """Fourteen linear-model coefficients with per-index significance flags.

    Insignificant entries must be exactly zero: only the significant set
    contributes to predicted scores.
    """

    coefficients: np.ndarray
    significant: np.ndarray
    provenance: str = ""

    def __post_init__(self):
        coeffs = np.asarray(self.coefficients, dtype=np.float64)
        sig = np.asarray(self.significant, dtype=bool)
        if coeffs.shape != (NUM_FEATURES,) or sig.shape != (NUM_FEATURES,):
            raise ValueError(f"expected {NUM_FEATURES} coefficients and flags")
        if not np.all(np.isfinite(coeffs)):
            raise ValueError("coefficients contain non-finite values")
        bad = np.nonzero(~sig & (coeffs != 0.0))[0]
        if bad.size:
            names = ", ".join(f"c{j + 1}" for j in bad)
            raise ValueError(f"insignificant coefficients must be zero: {names}")
        object.__setattr__(self, "coefficients", _readonly(coeffs))
        sig = sig.copy()
        sig.setflags(write=False)
        object.__setattr__(self, "significant", sig)


def _data_lines(text: str):
    """(1-based line number, stripped line) for every line that is not blank or a ``#`` comment."""
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if stripped and not stripped.startswith("#"):
            yield lineno, stripped


def _fast_table(text: str, width: int) -> np.ndarray | None:
    """All data lines as an (m, width) array of finite floats, or None on any doubt."""
    try:
        table = np.array([stripped.split() for _, stripped in _data_lines(text)], dtype=np.float64)
    except ValueError:  # a ragged row or a token float() rejects
        return None
    if table.ndim != 2 or table.shape[1] != width or not np.isfinite(table).all():
        return None
    return table


def parse_xyz(text: str) -> PointCloud:
    """Parse whitespace-separated xyz text into a cloud of at least two points.

    Malformed lines are reported with their 1-based line number.
    """
    points = _fast_table(text, 3)
    if points is None:
        rows = []
        for lineno, stripped in _data_lines(text):
            tokens = stripped.split()
            if len(tokens) != 3:
                raise ValueError(
                    f"malformed line {lineno}: expected 3 coordinates, got {len(tokens)}"
                )
            try:
                xyz = [float(t) for t in tokens]
            except ValueError:
                raise ValueError(f"malformed line {lineno}: {stripped!r} is not numeric") from None
            if not all(np.isfinite(xyz)):
                raise ValueError(f"non-finite coordinate on line {lineno}")
            rows.append(xyz)
        points = np.array(rows)
    if len(points) < 2:
        raise ValueError(f"point cloud needs at least 2 points, found {len(points)}")
    return PointCloud(points)


def format_number(value: float) -> str:
    """Decimal form with 17 significant digits; parses back to the same float64."""
    return f"{float(value):.16e}"


_FORMAT_CHUNK_ROWS = 1024


def _format_rows(table: np.ndarray, sep: str) -> str:
    r"""The rows of a 2-d array as ``format_number`` text, ``sep`` between columns.

    Equal to ``"\n".join(sep.join(map(format_number, row)) for row in table) + "\n"``.
    """
    row_format = sep.join(["%.16e"] * table.shape[1]) + "\n"
    chunks = []
    for start in range(0, len(table), _FORMAT_CHUNK_ROWS):
        block = table[start : start + _FORMAT_CHUNK_ROWS]
        chunks.append((row_format * len(block)) % tuple(block.ravel().tolist()))
    return "".join(chunks) or "\n"


def write_xyz(cloud: PointCloud) -> str:
    """Serialize a cloud so that ``parse_xyz`` reproduces it bit-exactly."""
    return _format_rows(cloud.points, " ")


def parse_scores(text: str, n: int | None = None) -> ScoreVector:
    """Parse one-number-per-line score text; with ``n`` given, it must hold exactly n values."""
    table = _fast_table(text, 1)
    if table is None:
        values = []
        for lineno, stripped in _data_lines(text):
            if len(stripped.split()) != 1:
                raise ValueError(f"malformed line {lineno}: expected one number per line")
            try:
                value = float(stripped)
            except ValueError:
                raise ValueError(f"malformed line {lineno}: {stripped!r} is not numeric") from None
            if not np.isfinite(value):
                raise ValueError(f"non-finite score on line {lineno}")
            values.append(value)
        table = np.array(values)
    values = table.ravel()
    if n is not None and len(values) != n:
        raise ValueError(f"score count mismatch: expected {n}, found {len(values)}")
    return ScoreVector(values, RAW_SALIENCY)


def write_scores(scores: ScoreVector) -> str:
    """Serialize scores one per line at full round-trip precision."""
    return _format_rows(scores.values[:, None], "")


def load_coefficients(text: str) -> CoefficientSet:
    """Load coefficient document text, enforcing the insignificant-implies-zero rule.

    The document must declare every index 1..14 exactly once; ``provenance``,
    when present, must be a JSON string.
    """
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # ValueError covers JSONDecodeError and over-long integer literals.
        raise ValueError(f"invalid coefficient document: {exc}") from None
    entries = doc.get("coefficients") if isinstance(doc, dict) else None
    if not isinstance(entries, list):
        raise ValueError("coefficient document must be an object with a 'coefficients' list")
    provenance = doc.get("provenance", "")
    if not isinstance(provenance, str):
        raise ValueError(f"coefficient provenance must be a JSON string, got {provenance!r}")
    values = np.zeros(NUM_FEATURES)
    flags = np.zeros(NUM_FEATURES, dtype=bool)
    seen = set()
    for entry in entries:
        if not isinstance(entry, dict) or not {"index", "value", "significant"} <= entry.keys():
            raise ValueError(f"bad coefficient entry: {entry!r}")
        idx, value, significant = entry["index"], entry["value"], entry["significant"]
        # JSON true/false load as bool, a subclass of int.
        if type(idx) is not int:
            raise ValueError(f"coefficient index must be a JSON integer, got {idx!r}")
        if type(significant) is not bool:
            raise ValueError(
                f"coefficient {idx} significance must be a JSON boolean, got {significant!r}"
            )
        # Written so that NaN fails; an exact int-float comparison cannot overflow.
        if type(value) not in (int, float) or not abs(value) <= sys.float_info.max:
            raise ValueError(f"coefficient {idx} value must be a finite JSON number, got {value!r}")
        value = float(value)
        if not 1 <= idx <= NUM_FEATURES:
            raise ValueError(f"coefficient index {idx} outside 1..{NUM_FEATURES}")
        if idx in seen:
            raise ValueError(f"duplicate coefficient index {idx}")
        seen.add(idx)
        if not significant and value != 0.0:
            raise ValueError(f"insignificant coefficient c{idx} must be zero, got {value}")
        values[idx - 1] = value
        flags[idx - 1] = significant
    missing = sorted(set(range(1, NUM_FEATURES + 1)) - seen)
    if missing:
        raise ValueError(f"missing coefficient indices: {missing}")
    return CoefficientSet(values, flags, provenance)


def write_coefficients(coeffs: CoefficientSet) -> str:
    """Serialize a coefficient set as a loadable JSON document."""
    doc = {
        "provenance": coeffs.provenance,
        "coefficients": [
            {
                "index": j + 1,
                "value": float(coeffs.coefficients[j]),
                "significant": bool(coeffs.significant[j]),
            }
            for j in range(NUM_FEATURES)
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def normalize_cloud(cloud: PointCloud) -> PointCloud:
    """Center a cloud on its centroid and scale the farthest point to unit norm.

    Idempotent to within 1e-12. Raises on a degenerate cloud whose points
    all coincide.
    """
    pts = cloud.points - cloud.points.mean(axis=0)
    max_norm = np.linalg.norm(pts, axis=1).max()
    if max_norm == 0.0:
        raise ValueError("degenerate cloud: all points coincide")
    return PointCloud(pts / max_norm)
