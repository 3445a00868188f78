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
    encode_matrix,
)


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

    def test_complex_rendered_as_pair(self):
        assert dumps_canonical(complex(1.5, -2.0)) == "[1.5, -2]\n"

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
    def test_array_renders_as_its_encoded_rows(self, depth):
        gen = Rng(91).generator()
        arrays = [
            np.zeros((0, 0)), np.zeros((3, 0)), np.zeros((0, 2)), np.zeros(0),
            np.array([1.5, -0.0]), np.array([[-0.0 - 0.0j, 1e308 - 1e-308j]]),
            np.arange(6).reshape(2, 3), np.array([[5e-324, -2.5e-123]]),
            complex_gaussian(gen, 4, 3),
        ]
        for a in arrays:
            assert _render(a, depth) == _render(encode_matrix(a), depth)

    def test_array_rejections_match_the_encoded_route(self):
        for bad in (np.array([[np.nan]]), np.array([[1.0, np.inf * 1j]]), np.zeros((2, 2, 2)), np.array(3.0)):
            for route in (lambda: _render(bad, 0), lambda: _render(encode_matrix(bad), 0)):
                with pytest.raises(ValueError):
                    route()

    def test_deterministic_bytes(self):
        payload = {"z": np.arange(4.0).reshape(2, 2), "a": [1.5, 2.5], "k": "s"}
        assert dumps_canonical(payload) == dumps_canonical(payload)


class TestMatrixCodec:
    def test_encode_column_from_1d(self):
        assert encode_matrix(np.array([1.0, 2.0])) == [[[1.0, 0.0]], [[2.0, 0.0]]]

    def test_encode_rejects_higher_rank(self):
        with pytest.raises(ValueError):
            encode_matrix(np.zeros((2, 2, 2)))

    def test_round_trip_random_complex(self):
        gen = Rng(90).generator()
        for shape in ((1, 1), (3, 2), (4, 4)):
            m = complex_gaussian(gen, *shape)
            again = decode_matrix(json.loads(dumps_canonical(encode_matrix(m))))
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
