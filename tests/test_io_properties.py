"""Property and fuzz tests for the text readers and writers.

The readers must agree with a token-by-token ``float`` oracle on every text:
the same array bits, or a ValueError naming the oracle's first bad line.
Valid texts are walked once; only a bad one gets the second, line-finding
pass. The chunked writer must equal the per-number ``format_number`` join
byte for byte, both on arbitrary floats and inside its exact kernel's range,
and a deterministic sweep checks the kernel's rounding and exponent cases.
Only ValueError may escape the parsers of untrusted text.
"""

import json
import re
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from oracles import naive_table

import pointdrop.io as pio
from pointdrop import PointCloud, ScoreVector, load_coefficients, parse_scores, parse_xyz
from pointdrop.io import RAW_SALIENCY, format_number, write_scores, write_xyz

SETTINGS = settings(
    max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

# Tokens float() accepts, including forms a naive reader might not:
# underscores, signed zero, infinities and NaN, non-ASCII digits.
GOOD_TOKENS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(allow_nan=False, allow_infinity=False).map(format_number),
    st.integers(-(10**20), 10**20).map(str),
    st.sampled_from(["1_0", "-0", "+.5", "1e-320", "1e400", "-1e400", "inf", "-Infinity",
                     "nan", "NaN", "\u0661\u0662", "\uff13", "0.1"]),
)
BAD_TOKENS = st.sampled_from(["abc", "1__0", "_1", "1_", "0x10", "1.5f", "nan(1)", "--1",
                              "1e", ".", "#", "1,2", "\xbd"])
TOKENS = st.one_of(GOOD_TOKENS, GOOD_TOKENS, GOOD_TOKENS, BAD_TOKENS)
# Whitespace inside a line, ASCII and Unicode; \x1c and \x85 also end a line.
SPACES = st.sampled_from([" ", "  ", "\t", "\x0b", "\x0c", "\xa0", "\u2003", "\u3000",
                          "\x1c", "\x85"])
LINE_ENDS = st.sampled_from(["\n", "\r\n", "\r", "\u2028"])


@st.composite
def data_line(draw, width):
    # Mostly the right token count, sometimes ragged.
    count = draw(st.one_of(st.just(width), st.just(width), st.integers(0, width + 2)))
    tokens = [draw(TOKENS) for _ in range(count)]
    gaps = [draw(SPACES) for _ in range(count + 1)]
    head = gaps[0] if draw(st.booleans()) else ""
    tail = gaps[-1] if draw(st.booleans()) else ""
    return head + "".join(t + g for t, g in zip(tokens, gaps[1:-1] + [""])) + tail


@st.composite
def text_of(draw, width):
    lines = draw(
        st.lists(
            st.one_of(
                data_line(width),
                data_line(width),
                data_line(width),
                st.sampled_from(["", " ", "\t", "# comment", "  #x 1 2 3", "#", "\u3000"]),
            ),
            max_size=8,
        )
    )
    ends = [draw(LINE_ENDS) for _ in lines]
    text = "".join(line + end for line, end in zip(lines, ends))
    if text and draw(st.booleans()):
        text = text.rstrip("\n")
    return text


def outcome(parse, text):
    try:
        result = parse(text)
    except ValueError as exc:
        return ("error", str(exc))
    values = result.points if hasattr(result, "points") else result.values
    return ("ok", values.shape, values.tobytes())


class CountingText(str):
    """A text that counts how often a reader splits it into lines."""

    walks = 0

    def splitlines(self, *args, **kwargs):
        self.walks += 1
        return super().splitlines(*args, **kwargs)


def assert_matches_oracle(parse, width, text):
    rows, bad_line = naive_table(text, width)
    got = outcome(parse, text)
    if bad_line is not None:
        assert got[0] == "error", got
        assert re.search(r"line (\d+)", got[1]).group(1) == str(bad_line), got
    elif parse is parse_xyz and len(rows) < 2:
        assert got[0] == "error" and "at least 2 points" in got[1], got
    else:
        shape = rows.shape if parse is parse_xyz else rows.shape[:1]
        assert got == ("ok", shape, rows.tobytes())


READERS = [(parse_xyz, 3), (parse_scores, 1)]


@pytest.mark.parametrize("parse, width", READERS, ids=["parse_xyz", "parse_scores"])
class TestFastReader:
    @SETTINGS
    @given(data=st.data())
    def test_same_bits_or_first_bad_line(self, parse, width, data):
        assert_matches_oracle(parse, width, data.draw(text_of(width)))

    def test_valid_texts_take_fast_path(self, parse, width):
        body = "# c\n\n" + " ".join(["1_0"] * width) + "\r\n\u3000" + " ".join(["-0"] * width)
        text = CountingText(body)
        got = outcome(parse, text)
        assert text.walks == 1
        assert got[2] == np.array([[10.0] * width, [-0.0] * width]).tobytes()
        assert_matches_oracle(parse, width, body)


@pytest.mark.parametrize(
    "parse, body, message",
    [
        (parse_xyz, "1 2 3\n4 5\n", "line 2"),  # ragged
        (parse_xyz, "1 2 3 4\n5 6\n", "line 1"),  # 6 tokens, divisible by 3
        (parse_xyz, "1 2 3\nnan 1 1\n", "line 2"),
        (parse_xyz, "1 2 3\n1e400 0 0\n", "line 2"),
        (parse_xyz, "1 2 3\n0 zero 0\n", "line 2"),
        (parse_scores, "1\n2 3\n", "line 2"),
        (parse_scores, "1 2\n3\n", "line 1"),
        (parse_scores, "1\n-inf\n", "line 2"),
        (parse_scores, "1\n\n1__0\n", "line 3"),
    ],
)
def test_doubts_fall_back_to_numbered_errors(parse, body, message):
    text = CountingText(body)
    with pytest.raises(ValueError, match=message):
        parse(text)
    assert text.walks == 2
    assert_matches_oracle(parse, dict(READERS)[parse], body)


FLOATS = st.floats(allow_nan=True, allow_infinity=True, width=64)


def near(value, steps):
    """The float ``steps`` representable values above ``value`` (below for steps < 0)."""
    for _ in range(abs(steps)):
        value = np.nextafter(value, np.inf if steps > 0 else 0.0)
    return float(value)


# Values the exact kernel formats itself: its whole range, the neighbours of
# every power of ten in it, and zero, with either sign.
NEAR_POWERS = [near(float(f"1e{k}"), steps) for k in range(-10, 16) for steps in range(-3, 4)]
KERNEL_FLOATS = st.one_of(
    st.floats(pio._EXACT_MIN, pio._EXACT_END, exclude_max=True),
    st.floats(-pio._EXACT_END, -pio._EXACT_MIN, exclude_min=True),
    st.sampled_from(NEAR_POWERS + [-v for v in NEAR_POWERS] + [0.0, -0.0]),
)


class TestChunkedWriter:
    @staticmethod
    def reference(table, sep):
        return "\n".join(sep.join(format_number(x) for x in row) for row in table) + "\n"

    @SETTINGS
    @given(
        table=hnp.arrays(
            np.float64, st.tuples(st.integers(1, 12), st.integers(1, 14)), elements=FLOATS
        ),
        chunk=st.sampled_from([1, 2, 3, 5, pio._FORMAT_CHUNK_ROWS]),
        sep=st.sampled_from([" ", ","]),
    )
    def test_equals_format_number_join(self, table, chunk, sep):
        with mock.patch.object(pio, "_FORMAT_CHUNK_ROWS", chunk):
            assert pio._format_rows(table, sep) == self.reference(table, sep)

    @SETTINGS
    @given(
        table=hnp.arrays(
            np.float64, st.tuples(st.integers(1, 12), st.integers(1, 14)), elements=KERNEL_FLOATS
        ),
        chunk=st.sampled_from([1, 2, 3, 5, pio._FORMAT_CHUNK_ROWS]),
        sep=st.sampled_from([" ", ","]),
    )
    def test_kernel_range_equals_format_number_join(self, table, chunk, sep):
        with mock.patch.object(pio, "_FORMAT_CHUNK_ROWS", chunk):
            assert pio._format_rows(table, sep) == self.reference(table, sep)

    @pytest.mark.parametrize("offset", [-1, 0, 1, pio._FORMAT_CHUNK_ROWS + 1])
    def test_default_chunk_boundaries(self, offset):
        n = pio._FORMAT_CHUNK_ROWS + offset
        points = np.random.default_rng(offset + 2).normal(size=(n, 3)) * 1e-3
        cloud = PointCloud(points)
        assert write_xyz(cloud) == self.reference(points, " ")
        scores = ScoreVector(points[:, 0], RAW_SALIENCY)
        assert write_scores(scores) == self.reference(points[:, :1], "")

    def test_single_row_and_empty_scores(self):
        assert write_xyz(PointCloud([[0.1, -0.0, 5e-324]])) == self.reference(
            [[0.1, -0.0, 5e-324]], " "
        )
        assert write_scores(ScoreVector([], RAW_SALIENCY)) == "\n"


def sweep_tables():
    """Deterministic tables for the kernel, each paired with a short name."""
    rng = np.random.default_rng(20260)
    patterns = rng.integers(0, 2**64, size=101_000, dtype=np.uint64).view(np.float64)
    patterns = patterns[np.isfinite(patterns)][:100_000]
    # Random significands and signs with the binary exponent inside the kernel range.
    exponents = rng.integers(1023 - 36, 1023 + 53, size=100_000, dtype=np.uint64)
    mantissas = rng.integers(0, 2**52, size=100_000, dtype=np.uint64)
    signs = rng.integers(0, 2, size=100_000, dtype=np.uint64) << np.uint64(63)
    in_range = (signs | exponents << np.uint64(52) | mantissas).view(np.float64)
    # Odd m * 2^-j with 18 - j integer digits: 18 significant digits ending in 5,
    # so each 17-digit rounding is an exact tie.
    ties = []
    for j in range(2, 6):
        low, end = 2**j * 10 ** (17 - j), min(2**j * 10 ** (18 - j), 2**53)
        odd = rng.integers(low // 2, end // 2, size=5_000, dtype=np.int64) * 2 + 1
        ties.append(np.ldexp(odd.astype(np.float64), -j))
    ties = np.concatenate(ties)
    powers = [float(f"1e{k}") for k in range(-20, 21)]
    neighbours = [near(p, step) for p in powers for step in (-1, 0, 1)]
    specials = [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
                np.inf, -np.inf, np.nan]
    mixed = {}
    for width in (1, 3, 14):
        rows = []
        for col in range(width):
            for outside in specials[2:] + [1e-14, -1e-12, 2.0**53, -1e16]:
                row = in_range[:width].copy()
                row[col] = outside
                rows += [in_range[width : 2 * width], row]
        mixed[f"mixed-{width}"] = np.array(rows)
    chunk = pio._FORMAT_CHUNK_ROWS
    straddle = np.resize(in_range, (chunk + 3, 3))
    straddle[chunk - 1, 0] = straddle[chunk + 1, 0] = np.nan
    return [
        ("patterns", patterns[:, None]),
        ("in-range", in_range.reshape(-1, 4)),
        ("ties", np.concatenate([ties, -ties]).reshape(-1, 5)),
        ("powers", np.array(neighbours + [-v for v in neighbours]).reshape(-1, 3)),
        ("specials", np.array(specials + [-v for v in specials])[:, None]),
        *mixed.items(),
        ("straddle", straddle),
        ("straddle-exact", straddle[:, 1:]),
    ]


SWEEP = sweep_tables()


@pytest.mark.parametrize("sep", [" ", ","], ids=["space", "comma"])
@pytest.mark.parametrize("table", [t for _, t in SWEEP], ids=[name for name, _ in SWEEP])
def test_exactness_sweep(table, sep):
    """The writer against a per-number ``%.16e``, over the kernel's hard cases."""
    row_format = sep.join(["%.16e"] * table.shape[1]) + "\n"
    expected = (row_format * len(table)) % tuple(table.ravel().tolist())
    # Compared as lines, so that a failure names the first bad row without a slow text diff.
    assert pio._format_rows(table, sep).split("\n") == expected.split("\n")


def test_no_kernel_value_carries_to_next_power():
    """The kernel needs no carry rule: no 17-digit rounding in its range reaches 10^17.

    Only the largest float64 below a power of ten can round up to it, and of
    those in 1e-40..1e40 only the one nearest 1e-14 does; it lies below the range.
    """
    carries = []
    for k in range(-40, 41):
        nearest = float(f"1e{k}")
        below = nearest if Fraction(nearest) < Fraction(10) ** k else near(nearest, -1)
        if format_number(below).startswith("1.0000000000000000e"):
            carries.append(below)
    assert carries == [1e-14]
    assert not pio._EXACT_MIN <= 1e-14 < pio._EXACT_END


JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=5)
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4), st.dictionaries(st.text(max_size=5), inner, max_size=4)
    ),
    max_leaves=12,
)


@st.composite
def coefficient_documents(draw):
    """Near-valid documents: the 14 entries with some fields replaced by arbitrary JSON."""
    entries = []
    for j in range(1, 15):
        entry = {"index": j, "value": 0.0, "significant": False}
        for key in ("index", "value", "significant"):
            if draw(st.integers(0, 9)) == 0:
                entry[key] = draw(JSON_VALUES)
        if draw(st.integers(0, 19)) == 0:
            entry = draw(JSON_VALUES)
        entries.append(entry)
    doc = {"provenance": draw(JSON_VALUES), "coefficients": entries}
    if draw(st.integers(0, 9)) == 0:
        doc["coefficients"] = draw(JSON_VALUES)
    return json.dumps(doc)


def only_value_error(fn, *args):
    try:
        fn(*args)
    except ValueError:
        pass


class TestOnlyValueErrorEscapes:
    @SETTINGS
    @given(text=st.text())
    def test_load_coefficients_any_text(self, text):
        only_value_error(load_coefficients, text)

    @SETTINGS
    @given(text=st.one_of(JSON_VALUES.map(json.dumps), coefficient_documents()))
    def test_load_coefficients_any_json(self, text):
        only_value_error(load_coefficients, text)

    @SETTINGS
    @given(text=st.one_of(st.text(), text_of(1)), n=st.one_of(st.none(), st.integers(0, 5)))
    def test_parse_scores_any_text(self, text, n):
        only_value_error(parse_scores, text, n)
