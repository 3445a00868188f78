"""Canonical JSON encoding: determinism, round trips, rejection paths."""

import json

import numpy as np
import pytest

from opext.oracle import Rng, complex_gaussian
from opext.serialize import (
    _render,
    decode_int,
    decode_matrix,
    decode_real,
    dumps_canonical,
)


def reference_matrix(a, depth):
    """The documented matrix layout, entry by entry: rows of [re, im] at "%.17g", -0.0 as 0, a row a line."""
    a = np.asarray(a, dtype=np.complex128)
    rows = a.reshape(-1, 1) if a.ndim == 1 else a
    if not len(rows):
        return "[]"
    lines = ["[" + ", ".join("[%.17g, %.17g]" % (z.real + 0.0, z.imag + 0.0) for z in row) + "]" for row in rows.tolist()]
    return "[\n" + ",\n".join("  " * (depth + 1) + line for line in lines) + "\n" + "  " * depth + "]"


class TestRendering:
    def test_scalars(self):
        assert dumps_canonical(None) == "null\n"
        assert dumps_canonical(True) == "true\n"
        assert dumps_canonical(False) == "false\n"
        assert dumps_canonical(3) == "3\n"
        assert dumps_canonical("a\"b") == '"a\\"b"\n'

    def test_float_seventeen_digits_round_trips(self):
        values = [0.1, 1 / 3, 2**-52, 1e300, -2.5e-123, np.pi]
        for x in values:
            text = dumps_canonical(x)
            assert json.loads(text) == x

    def test_negative_zero_normalized(self):
        assert dumps_canonical(-0.0) == "0\n"

    def test_non_finite_rejected(self):
        for bad in (float("inf"), float("-inf"), float("nan")):
            with pytest.raises(ValueError):
                dumps_canonical(bad)
            with pytest.raises(ValueError):
                dumps_canonical({"x": [bad]})

    def test_sorted_keys_and_trailing_newline(self):
        text = dumps_canonical({"b": 1, "a": 2})
        assert text == '{\n  "a": 2,\n  "b": 1\n}\n'

    def test_flat_list_renders_on_one_line(self):
        text = dumps_canonical({"row": [1.0, 2.0, 3.0]})
        assert '"row": [1, 2, 3]' in text

    def test_matrix_rows_each_on_one_line(self):
        text = dumps_canonical({"m": np.eye(2)})
        lines = text.splitlines()
        assert "    [[1, 0], [0, 0]]," in lines
        assert "    [[0, 0], [1, 0]]" in lines

    def test_nested_structures_and_empty_containers(self):
        assert dumps_canonical([]) == "[]\n"
        assert dumps_canonical({}) == "{}\n"
        text = dumps_canonical({"outer": {"inner": []}})
        assert json.loads(text) == {"outer": {"inner": []}}

    def test_non_string_keys_rejected(self):
        with pytest.raises(TypeError):
            dumps_canonical({1: "x"})

    def test_unserializable_type_rejected(self):
        with pytest.raises(TypeError):
            dumps_canonical(object())

    @pytest.mark.parametrize("depth", [0, 2])
    def test_array_renders_as_its_reference_rows(self, depth):
        gen = Rng(91).generator()
        arrays = [
            np.zeros((0, 0)), np.zeros((3, 0)), np.zeros((0, 2)), np.zeros(0),
            np.array([1.5, -0.0]), np.array([[-0.0 - 0.0j, 1e308 - 1e-308j]]),
            np.arange(6).reshape(2, 3), np.array([[5e-324, -2.5e-123]]),
            complex_gaussian(gen, 4, 3),
        ]
        for a in arrays:
            assert _render(a, depth) == reference_matrix(a, depth)

    def test_array_rejections(self):
        for bad in (np.array([[np.nan]]), np.array([[1.0, np.inf * 1j]]), np.zeros((2, 2, 2)), np.array(3.0)):
            with pytest.raises(ValueError):
                _render(bad, 0)

    def test_deterministic_bytes(self):
        payload = {"z": np.arange(4.0).reshape(2, 2), "a": [1.5, 2.5], "k": "s"}
        assert dumps_canonical(payload) == dumps_canonical(payload)


class TestMatrixCodec:
    def test_1d_array_renders_as_a_column(self):
        assert dumps_canonical(np.array([1.0, 2.0])) == "[\n  [[1, 0]],\n  [[2, 0]]\n]\n"

    def test_round_trip_random_complex(self):
        gen = Rng(90).generator()
        for shape in ((1, 1), (3, 2), (4, 4)):
            m = complex_gaussian(gen, *shape)
            again = decode_matrix(json.loads(dumps_canonical(m)))
            np.testing.assert_array_equal(again, m)

    def test_decode_plain_numbers_as_real(self):
        m = decode_matrix([[1, 2], [3, 4.5]])
        np.testing.assert_array_equal(m, np.array([[1.0, 2.0], [3.0, 4.5]]))

    def test_decode_pairs(self):
        m = decode_matrix([[[0.0, 1.0]]])
        assert m[0, 0] == 1j

    def test_decode_empty(self):
        assert decode_matrix([]).shape == (0, 0)
        assert decode_matrix([[], []]).shape == (2, 0)

    def test_decode_rejects_ragged(self):
        with pytest.raises(ValueError, match="inconsistent"):
            decode_matrix([[1.0], [1.0, 2.0]])

    def test_decode_rejects_non_numbers(self):
        with pytest.raises(ValueError):
            decode_matrix([[True]])
        with pytest.raises(ValueError):
            decode_matrix([["x"]])
        with pytest.raises(ValueError):
            decode_matrix("nope")
        with pytest.raises(ValueError):
            decode_matrix([1.0, 2.0])

    def test_decode_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            decode_matrix([[float("nan")]])


PAIRS = "entries must be numbers or [re, im] pairs"
FINITE = "entries must be finite"

# input -> the message decode_matrix(input, "m") raises, after "m: "
REJECTIONS = {
    "not an array": ("nope", "expected an array of row arrays"),
    "an object": ({"rows": []}, "expected an array of row arrays"),
    "a row that is a number": ([1.0, 2.0], "each row must be an array"),
    "a row that is null": ([[1.0], None], "each row must be an array"),
    "ragged rows": ([[1.0], [1.0, 2.0]], "rows have inconsistent lengths"),
    "true": ([[1.0, True]], "boolean is not a number"),
    "false as a row's first entry": ([[False], [1.0]], "boolean is not a number"),
    "true inside a pair": ([[[True, 1]]], PAIRS),
    "a string": ([["x"]], PAIRS),
    "a string inside a pair": ([[[1.0, "2"]]], PAIRS),
    "null": ([[None]], PAIRS),
    "an object entry": ([[{"re": 1.0}]], PAIRS),
    "an empty array": ([[[]]], PAIRS),
    "a one-element array": ([[[1.0]]], PAIRS),
    "a three-element array": ([[[1.0, 2.0, 3.0]]], PAIRS),
    "a nested pair": ([[[[1.0, 2.0], 0.0]]], PAIRS),
    "a tuple": ([[(1.0, 2.0)]], PAIRS),
    "a numpy scalar": ([[np.float64(1.0)]], PAIRS),
    "nan": ([[1.0, float("nan")]], FINITE),
    "inf inside a pair": ([[[0.0, float("-inf")]]], FINITE),
    "1e400 as JSON reads it": (json.loads("[[1e400]]"), FINITE),
    "10^400": ([[10**400]], FINITE),
    "10^400 inside a pair": ([[[1.0, -(10**400)]]], FINITE),
    # precedence: every structural fault before any entry fault, a bad entry before a non-finite value
    "a bad entry in an earlier row than a non-array row": ([["x"], [1.0], 3.0], "each row must be an array"),
    "a bad entry in an earlier row than a short row": ([[True, 1.0], [1.0]], "rows have inconsistent lengths"),
    "the first bad entry in row order": ([[1.0, "x"], [True, 2.0]], PAIRS),
    "the first bad entry in row order, a boolean": ([[1.0, True], ["x", 2.0]], "boolean is not a number"),
    "nan before a bad entry": ([[float("nan")], ["x"]], PAIRS),
    "10^400 before a bad entry": ([[10**400, [1.0, None]]], PAIRS),
}

# input -> the matrix decode_matrix returns
ACCEPTED = {
    "empty": ([], np.zeros((0, 0))),
    "rows without entries": ([[], []], np.zeros((2, 0))),
    "integers": ([[1, -2]], np.array([[1.0, -2.0]])),
    "mixed real and pair rows": (
        [[1, [2.0, -3]], [[0.5, 0], -4.0], [[0, 1e-300], 7]],
        np.array([[1.0, 2.0 - 3.0j], [0.5, -4.0], [1e-300j, 7.0]]),
    ),
    "integers beyond 2^53 round as float() does": ([[2**63 + 1, [0, -(2**60) - 1]]], np.array([[2.0**63, -(2.0**60) * 1j]])),
}


class TestDecodeTable:
    @pytest.mark.parametrize("case", REJECTIONS)
    def test_rejection_message(self, case):
        rows, message = REJECTIONS[case]
        with pytest.raises(ValueError) as excinfo:
            decode_matrix(rows, "m")
        assert str(excinfo.value) == f"m: {message}"

    @pytest.mark.parametrize("case", ACCEPTED)
    def test_accepted(self, case):
        rows, want = ACCEPTED[case]
        got = decode_matrix(rows)
        assert got.dtype == np.complex128 and got.flags.c_contiguous and got.shape == want.shape
        assert np.array_equal(got, want)

    def test_matches_the_per_entry_reference(self):
        # random mixes of integers, floats and [re, im] pairs, against complex(float(re), float(im)) entry by entry
        gen = np.random.default_rng(93)
        for rows, cols in ((1, 1), (3, 5), (16, 16)):
            values = gen.standard_normal((rows, cols, 2)) * 10.0 ** gen.integers(-300, 300, (rows, cols, 2))
            kinds = gen.integers(0, 3, (rows, cols))
            matrix = [
                [[re, im] if k == 0 else re if k == 1 else int(re * 1e6) for (re, im), k in zip(row, kinds_row)]
                for row, kinds_row in zip(values.tolist(), kinds.tolist())
            ]
            reference = [[complex(*map(float, e)) if type(e) is list else complex(float(e), 0.0) for e in row]
                         for row in matrix]
            got = decode_matrix(matrix)
            assert got.view(np.float64).tobytes() == np.array(reference, dtype=np.complex128).view(np.float64).tobytes()

    def test_signed_zeros_kept(self):
        got = decode_matrix([[-0.0, [0.0, -0.0]]])
        assert list(np.signbit(got.view(np.float64)[0])) == [True, False, False, True]


class TestScalarDecoders:
    def test_decode_real(self):
        assert decode_real(2.5) == 2.5
        assert decode_real(3) == 3.0
        for bad in (True, "x", float("inf"), None):
            with pytest.raises(ValueError):
                decode_real(bad)

    def test_decode_int(self):
        assert decode_int(7) == 7
        for bad in (True, 2.0, "3", None):
            with pytest.raises(ValueError):
                decode_int(bad)
