"""Reading, writing, and validating point clouds, score vectors, and coefficient sets.

Text formats, all UTF-8:
  * ``.xyz`` clouds: one point per line, three whitespace-separated decimals,
    ``#``-prefixed comment lines and blank lines skipped.
  * score files: one decimal per line.
  * coefficient documents: JSON with ``provenance`` and a ``coefficients``
    list of ``{"index", "value", "significant"}`` records covering 1..14.

Clouds, scores and feature CSV carry 17 significant digits; coefficient JSON
carries Python's shortest round-trip repr (``-46.105``). Both parse back
bit-exact. Rows are written in blocks, byte for byte what ``format_number``
gives, by an exact numpy kernel: each |x| becomes an integer times a power of
two, its product with 5^s is formed in two uint64 limbs, and the 17 digits
are the quotient, rounded half-even from the exact remainder. Its range is
2^-36 <= |x| < 2^53 (about 1.5e-11 to 9.0e15) and ±0; a 1024-row block holding
any other value (smaller, larger, subnormal, inf or nan) is written wholly by ``%``.

The readers share one blank/comment rule (``_data_lines``) and one
converter: every data line is split and all tokens go through a single numpy
call, which parses each token as Python's ``float`` does. Only when that
call fails, or gives the wrong width or a non-finite value, does a second
pass walk the lines; it uses the same conversion, builds no rows, and only
finds the first bad line to name it in the error.

Scale rule: every stage that squares a length works in the exact units of
``_to_units`` (a cloud's are taken once, shared read-only: ``PointCloud._units``),
so no coordinate, feature or target scale underflows or overflows.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

NUM_FEATURES = 14

RAW_SALIENCY = "raw-saliency"
NORMALIZED_ADVERSARIAL = "normalized-adversarial"
PREDICTED = "predicted"
SCORE_KINDS = (RAW_SALIENCY, NORMALIZED_ADVERSARIAL, PREDICTED)


def _readonly(arr: np.ndarray, dtype=np.float64) -> np.ndarray:
    """A read-only copy of ``arr`` as ``dtype``: how every result type stores an array."""
    out = np.array(arr, dtype=dtype)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class PointCloud:
    """An n-by-3 array of finite xyz coordinates, immutable after construction.

    File ingestion requires n >= 2; attack outputs may transiently hold a
    single surviving point, so the constructor itself only requires n >= 1.
    Its power-of-two units, ``_units``, are taken once and shared read-only.
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

    @cached_property
    def _units(self) -> tuple[np.ndarray, int]:
        """(points / 2^e, e) by ``_to_units``, the array read-only and e a Python int."""
        units, exponent = _to_units(self.points)
        units.setflags(write=False)
        return units, int(exponent)


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
        object.__setattr__(self, "significant", _readonly(sig, bool))


def _data_lines(text: str):
    """(1-based line number, stripped line) for every line that is not blank or a ``#`` comment."""
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if stripped and not stripped.startswith("#"):
            yield lineno, stripped


def _read_table(text: str, width: int, noun: str) -> np.ndarray:
    """All data lines as an (m, width) array of finite floats.

    On a bad line, raises ValueError naming its 1-based number; ``noun``
    names one column value in those messages. The data lines are joined with
    a ";" marker after each and split once. When the token count is right and
    every (width + 1)-th token is a marker, the markers are dropped and the
    rest converted in one call; a marker left among them fails that call, so
    a table comes back only when every line held ``width`` tokens.
    """
    lines = [stripped for _, stripped in _data_lines(text)]
    tokens = " ; ".join(lines + [""]).split()
    if len(tokens) == len(lines) * (width + 1) and tokens[width :: width + 1] == [";"] * len(lines):
        del tokens[width :: width + 1]
        try:
            table = np.array(tokens, dtype=np.float64).reshape(-1, width)
            if np.isfinite(table).all():
                return table
        except ValueError:  # a token float() rejects, a misplaced ";" among them
            pass
    for lineno, stripped in _data_lines(text):
        tokens = stripped.split()
        if len(tokens) != width:
            plural = "s" if width > 1 else ""
            raise ValueError(
                f"malformed line {lineno}: expected {width} {noun}{plural}, got {len(tokens)}"
            )
        try:
            row = np.array(tokens, dtype=np.float64)
        except ValueError:
            raise ValueError(f"malformed line {lineno}: {stripped!r} is not numeric") from None
        if not np.isfinite(row).all():
            raise ValueError(f"non-finite {noun} on line {lineno}")
    raise AssertionError("every data line converted, yet the table was refused")


def parse_xyz(text: str) -> PointCloud:
    """Parse whitespace-separated xyz text into a cloud of at least two points.

    Malformed lines are reported with their 1-based line number.
    """
    points = _read_table(text, 3, "coordinate")
    if len(points) < 2:
        raise ValueError(f"point cloud needs at least 2 points, found {len(points)}")
    return PointCloud(points)


def format_number(value: float) -> str:
    """Decimal form with 17 significant digits; parses back to the same float64."""
    return f"{float(value):.16e}"


_FORMAT_CHUNK_ROWS = 1024

# The kernel's exact range, 2^-36 <= |x| < 2^53 and ±0: there the decimal exponent k
# lies in -11..15, so 5^(16 - k) fits a uint64 and the shift t of ``_decimal`` lies in 1..63.
_EXACT_MIN, _EXACT_END = 2.0**-36, 2.0**53
# Only uint64 operands: numpy 1.x turns uint64 mixed with int64 into float64.
_POW5 = np.array([5**s for s in range(28)], dtype=np.uint64)
_ONE, _B32, _B64, _LOW32 = (np.uint64(b) for b in (1, 32, 64, 2**32 - 1))
_E8, _E16, _E17 = np.uint64(10**8), np.uint64(10**16), np.uint64(10**17)
_TEN = np.uint32(10)


def _decimal(a: np.ndarray):
    """(d, k): d = a * 10^(16 - k) rounded half-even, in [10^16, 10^17), computed exactly.

    ``a`` holds positive float64 in the kernel range; d and k are the digits and the
    exponent of ``'%.16e' % a``. No rounding there reaches 10^17: the one float64 in
    10^-40..10^40 whose 17 digits carry into the next power of ten is the one nearest 1e-14.
    """
    f, e = np.frexp(a)
    m = np.ldexp(f, 55).astype(np.uint64)  # a = m * 2^(e - 55), m < 2^55
    m_hi, m_lo = m >> _B32, m & _LOW32
    k = np.floor(np.log10(a)).astype(np.int64)  # a guess: the quotient test below decides
    while True:
        # a * 10^s = m * 5^s / 2^t with s = 16 - k; the product in two uint64 limbs.
        p = _POW5[16 - k]
        p_hi, p_lo = p >> _B32, p & _LOW32
        lo = m_lo * p_lo
        mid = m_lo * p_hi + m_hi * p_lo
        hi = m_hi * p_hi + (mid >> _B32)
        mid <<= _B32
        lo += mid
        hi += lo < mid  # carry out of the low limb
        t = (39 - e + k).astype(np.uint64)
        q = (hi << (_B64 - t)) | (lo >> t)  # floor(a * 10^s)
        low, high = q < _E16, q >= _E17
        if not (low.any() or high.any()):
            break
        k += high
        k -= low
    rest, half = lo & ((_ONE << t) - _ONE), _ONE << (t - _ONE)
    return q + ((rest > half) | (rest == half) & ((q & _ONE) == _ONE)), k


def _exact_rows(block: np.ndarray, sep: str) -> str:
    """``_format_rows`` of a block whose values all lie in the kernel range."""
    rows, cols = block.shape
    x = block.ravel()
    zero = x == 0
    d, k = _decimal(np.where(zero, 1.0, np.abs(x)))
    d[zero] = 0
    k[zero] = 0
    # One uint8 plane per character position, one column per number, NUL where it has none;
    # the last plane holds ``sep``, or a newline ending a row.
    planes = np.empty((24, x.size), np.uint8)
    planes[0] = np.signbit(x) * np.uint8(ord("-"))
    high, low = (part.astype(np.uint32) for part in np.divmod(d, _E8))  # 9 and 8 digits
    for i in range(18, 10, -1):
        low, planes[i] = np.divmod(low, _TEN)
    for i in range(10, 2, -1):
        high, planes[i] = np.divmod(high, _TEN)
    planes[1] = high
    planes[21:23] = np.divmod(np.abs(k), 10)
    planes[1:23] += ord("0")
    planes[2] = ord(".")
    planes[19] = ord("e")
    planes[20] = np.where(k < 0, ord("-"), ord("+"))
    ends = planes[23].reshape(rows, cols)
    ends[:] = ord(sep)
    ends[:, -1] = ord("\n")
    return planes.T.tobytes().replace(b"\0", b"").decode()


def _format_rows(table: np.ndarray, sep: str) -> str:
    r"""The rows of a 2-d array as ``format_number`` text, ``sep`` between columns.

    Equal to ``"\n".join(sep.join(map(format_number, row)) for row in table) + "\n"``
    for ``sep`` one ASCII character other than NUL or newline. A block of rows holding a
    value outside the kernel's exact range is written wholly by ``%``.
    """
    row_format = sep.join(["%.16e"] * table.shape[1]) + "\n"
    chunks = []
    for start in range(0, len(table), _FORMAT_CHUNK_ROWS):
        block = table[start : start + _FORMAT_CHUNK_ROWS]
        a = np.abs(block)
        if ((a >= _EXACT_MIN) & (a < _EXACT_END) | (a == 0)).all():
            chunks.append(_exact_rows(block, sep))
        else:
            chunks.append(row_format * len(block) % tuple(block.ravel().tolist()))
    return "".join(chunks) or "\n"


def write_xyz(cloud: PointCloud) -> str:
    """Serialize a cloud so that ``parse_xyz`` reproduces it bit-exactly."""
    return _format_rows(cloud.points, " ")


def parse_scores(text: str, n: int | None = None) -> ScoreVector:
    """Parse one-number-per-line score text; with ``n`` given, it must hold exactly n values."""
    values = _read_table(text, 1, "score").ravel()
    if n is not None and len(values) != n:
        raise ValueError(f"score count mismatch: expected {n}, found {len(values)}")
    return ScoreVector(values, RAW_SALIENCY)


def write_scores(scores: ScoreVector) -> str:
    """Serialize scores one per line at full round-trip precision."""
    return _format_rows(scores.values[:, None], " ")


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


def _to_units(x: np.ndarray, axis=None, out=None):
    """(x / 2^e, e) with max |x| < 2^e <= 2 max |x| (e = 0 for zeros), exact.

    The scaled array goes to ``out`` when given (``out=x`` scales in place).
    Undo with ``np.ldexp(., e)``; 2^e itself is never formed, as it may overflow.
    """
    e = np.frexp(np.maximum(np.max(x, axis=axis), -np.min(x, axis=axis)))[1]  # max |x|, no copy
    return np.ldexp(x, -e, out=out), e


def normalize_cloud(cloud: PointCloud) -> PointCloud:
    """Center a cloud on its centroid and scale the farthest point to unit norm.

    Idempotent to within 1e-12, and exactly invariant under power-of-two
    rescaling. Raises on a degenerate cloud whose points all coincide.
    """
    units = cloud._units[0]
    if (units == units[0]).all():  # exact: a rounded mean would leave a scalable offset
        raise ValueError("degenerate cloud: all points coincide")
    pts = units - units.mean(axis=0)  # a new array: the cloud's units stay as they are
    _to_units(pts, out=pts)  # offsets far below the coordinates square without underflow
    return PointCloud(pts / np.linalg.norm(pts, axis=1).max())
