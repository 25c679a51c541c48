"""Tests for bit-vector utilities."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.io.bitutil import (
    bits_from_hex,
    bits_to_hex,
    ensure_bit_matrix,
    ensure_bits,
    hamming_weight,
    pack_bits,
    random_bits,
    unpack_bits,
    xor_bits,
)


class TestEnsureBits:
    def test_accepts_lists(self):
        result = ensure_bits([0, 1, 1, 0])
        assert result.dtype == np.uint8
        np.testing.assert_array_equal(result, [0, 1, 1, 0])

    def test_accepts_bool_arrays(self):
        result = ensure_bits(np.array([True, False, True]))
        np.testing.assert_array_equal(result, [1, 0, 1])

    def test_rejects_non_binary_values(self):
        with pytest.raises(ConfigurationError):
            ensure_bits([0, 1, 2])

    def test_rejects_negative_values(self):
        with pytest.raises(ConfigurationError):
            ensure_bits([-1, 0])

    def test_rejects_floats(self):
        with pytest.raises(ConfigurationError):
            ensure_bits(np.array([0.0, 1.0]))

    def test_rejects_2d(self):
        with pytest.raises(ConfigurationError):
            ensure_bits(np.zeros((2, 2), dtype=np.uint8))

    def test_length_check(self):
        with pytest.raises(ConfigurationError):
            ensure_bits([0, 1], length=3)

    def test_empty_allowed(self):
        assert ensure_bits([]).size == 0


class TestEnsureBitMatrix:
    def test_rows_stack_into_uint8_matrix(self):
        matrix = ensure_bit_matrix([[0, 1, 1], np.array([True, False, True])])
        assert matrix.dtype == np.uint8 and matrix.flags.c_contiguous
        np.testing.assert_array_equal(matrix, [[0, 1, 1], [1, 0, 1]])

    def test_matrix_is_checked_whole(self):
        matrix = np.array([[0, 1], [1, 1]], dtype=np.int64)
        np.testing.assert_array_equal(ensure_bit_matrix(matrix), matrix)
        with pytest.raises(ConfigurationError, match="0 and 1"):
            ensure_bit_matrix(np.array([[0, 1], [1, 3]]))

    def test_empty_sequence_is_an_empty_matrix(self):
        assert ensure_bit_matrix([]).shape == (0, 0)

    def test_ragged_rows_rejected(self):
        with pytest.raises(ConfigurationError, match="equal length"):
            ensure_bit_matrix([[0, 1], [0, 1, 1]])

    def test_non_vector_row_rejected(self):
        with pytest.raises(ConfigurationError, match="1-D"):
            ensure_bit_matrix([np.zeros((2, 2), dtype=np.uint8)])


class TestPackUnpack:
    def test_roundtrip(self):
        bits = random_bits(64, random_state=1)
        np.testing.assert_array_equal(unpack_bits(pack_bits(bits)), bits)

    def test_msb_first_convention(self):
        assert pack_bits([1, 0, 0, 0, 0, 0, 0, 0]) == b"\x80"
        assert pack_bits([0, 0, 0, 0, 0, 0, 0, 1]) == b"\x01"

    def test_non_byte_aligned_rejected(self):
        with pytest.raises(ConfigurationError):
            pack_bits([1, 0, 1])

    def test_unpack_with_bit_count_trims(self):
        bits = unpack_bits(b"\xff", bit_count=3)
        np.testing.assert_array_equal(bits, [1, 1, 1])

    def test_unpack_overlong_request_rejected(self):
        with pytest.raises(ConfigurationError):
            unpack_bits(b"\x00", bit_count=9)


class TestHex:
    def test_roundtrip(self):
        bits = random_bits(128, random_state=2)
        np.testing.assert_array_equal(bits_from_hex(bits_to_hex(bits)), bits)

    def test_known_value(self):
        assert bits_to_hex([1, 0, 1, 0, 1, 0, 1, 0]) == "aa"

    def test_invalid_hex_rejected(self):
        with pytest.raises(ConfigurationError):
            bits_from_hex("zz")


class TestHelpers:
    def test_hamming_weight(self):
        assert hamming_weight([1, 0, 1, 1]) == 3

    def test_random_bits_are_binary(self):
        bits = random_bits(1000, random_state=3)
        assert set(np.unique(bits)) <= {0, 1}

    def test_random_bits_roughly_balanced(self):
        bits = random_bits(10_000, random_state=4)
        assert 0.45 < bits.mean() < 0.55

    def test_random_bits_negative_count_rejected(self):
        with pytest.raises(ConfigurationError):
            random_bits(-1)

    def test_xor_bits(self):
        np.testing.assert_array_equal(
            xor_bits([1, 1, 0, 0], [1, 0, 1, 0]), [0, 1, 1, 0]
        )

    def test_xor_length_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            xor_bits([1, 0], [1, 0, 1])
