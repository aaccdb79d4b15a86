"""Property and fuzz tests for the text readers and writers.

The readers must agree with a token-by-token ``float`` oracle on every text:
the same array bits, or a ValueError naming the oracle's first bad line.
Valid texts are walked once; only a bad one gets the second, line-finding
pass. The chunked writer must equal the per-number ``format_number`` join
byte for byte. Only ValueError may escape the parsers of untrusted text.
"""

import json
import re
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
        sep=st.sampled_from([" ", ",", ""]),
    )
    def test_equals_format_number_join(self, table, chunk, sep):
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
