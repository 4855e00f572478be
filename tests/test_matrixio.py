
import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from edmsphere import FormatError
from edmsphere.matrixio import (
    format_matrix_text,
    load_matrix,
    parse_matrix,
    parse_matrix_json,
    parse_matrix_text,
)


class TestTextFormat:
    def test_basic(self):
        M = parse_matrix_text("2\n0 1.5\n1.5 0\n")
        npt.assert_array_equal(M, [[0.0, 1.5], [1.5, 0.0]])

    def test_comments_and_blank_lines(self):
        text = "# header\n\n3  # order\n0 1 2\n# interlude\n1 0 3\n2 3 0\n"
        M = parse_matrix_text(text)
        assert M.shape == (3, 3)
        assert M[1, 2] == 3.0

    def test_scientific_notation(self):
        M = parse_matrix_text("1\n1e-3\n")
        assert M[0, 0] == 1e-3

    @pytest.mark.parametrize(
        "text, match",
        [
            ("x\n", "expected matrix order"),
            ("0\n", "order must be positive"),
            ("2\n0 1\n", "expected 2 rows, found 1"),
            ("2\n0 1 2\n1 0\n", "line 2: expected 2 entries"),
            ("2\n0 one\n1 0\n", "line 2: bad float"),
            ("1\n0\n1\n", "more than 1 rows"),
            ("", "empty input"),
            ("# only comments\n", "empty input"),
        ],
    )
    def test_errors_carry_line_numbers(self, text, match):
        with pytest.raises(FormatError, match=match):
            parse_matrix_text(text)

    def test_format_includes_comment_and_order(self):
        out = format_matrix_text(np.zeros((2, 2)), comment="two lines\nof header")
        lines = out.splitlines()
        assert lines[0] == "# two lines"
        assert lines[1] == "# of header"
        assert lines[2] == "2"

    @given(
        st.integers(1, 5).flatmap(
            lambda n: arrays(
                np.float64,
                (n, n),
                elements=st.floats(allow_nan=False, allow_infinity=False, width=64),
            )
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_round_trip_bit_exact(self, M):
        npt.assert_array_equal(parse_matrix_text(format_matrix_text(M)), M)


class TestJsonFormat:
    def test_basic(self):
        M = parse_matrix_json('{"n": 2, "rows": [[0, 1], [1, 0]]}')
        npt.assert_array_equal(M, [[0.0, 1.0], [1.0, 0.0]])

    @pytest.mark.parametrize(
        "text, match",
        [
            ("{bad json", "invalid JSON"),
            ('{"rows": [[0]]}', 'keys "n" and "rows"'),
            ('{"n": 0, "rows": []}', "positive integer"),
            ('{"n": 2, "rows": [[0, 1]]}', "expected \\(2, 2\\)"),
            ('{"n": 1, "rows": [["x"]]}', "rectangular array of numbers"),
            ('{"n": true, "rows": [[0.0]]}', "positive integer"),
            ('{"n": 2, "rows": [[0.0, true], [true, 0.0]]}', "not booleans"),
        ],
    )
    def test_errors(self, text, match):
        with pytest.raises(FormatError, match=match):
            parse_matrix_json(text)


def test_parse_dispatches_on_leading_brace():
    npt.assert_array_equal(parse_matrix('  {"n": 1, "rows": [[7]]}'), [[7.0]])
    npt.assert_array_equal(parse_matrix("1\n7\n"), [[7.0]])


def test_load_matrix(tmp_path):
    p = tmp_path / "m.txt"
    p.write_text("2\n0 3\n3 0\n")
    npt.assert_array_equal(load_matrix(p), [[0.0, 3.0], [3.0, 0.0]])
    q = tmp_path / "m.json"
    q.write_text('{"n": 1, "rows": [[0]]}')
    npt.assert_array_equal(load_matrix(q), [[0.0]])
