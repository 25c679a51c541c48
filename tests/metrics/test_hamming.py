"""Tests for Hamming distance/weight metrics."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.metrics import hamming
from repro.metrics.entropy import puf_min_entropy
from repro.metrics.hamming import (
    between_class_hd,
    fractional_hamming_distance,
    fractional_hamming_weight,
    fractional_hamming_weight_from_counts,
    hamming_distance,
    within_class_hd,
    within_class_hd_from_counts,
)


class TestHammingDistance:
    def test_identical_vectors(self):
        assert hamming_distance([1, 0, 1], [1, 0, 1]) == 0

    def test_complement(self):
        assert hamming_distance([1, 0, 1], [0, 1, 0]) == 3

    def test_fractional(self):
        assert fractional_hamming_distance([1, 1, 0, 0], [1, 0, 0, 0]) == 0.25

    def test_length_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            hamming_distance([1, 0], [1, 0, 1])

    def test_empty_fhd_rejected(self):
        with pytest.raises(ConfigurationError):
            fractional_hamming_distance([], [])


class TestHammingWeight:
    def test_vector(self):
        assert fractional_hamming_weight([1, 1, 0, 0]) == 0.5

    def test_matrix_averages_all_entries(self):
        matrix = np.array([[1, 1], [0, 0]], dtype=np.uint8)
        assert fractional_hamming_weight(matrix) == 0.5

    def test_from_counts(self):
        counts = np.array([10, 0, 5])
        assert fractional_hamming_weight_from_counts(counts, 10) == pytest.approx(0.5)

    def test_from_counts_out_of_range_rejected(self):
        with pytest.raises(ConfigurationError):
            fractional_hamming_weight_from_counts(np.array([11]), 10)

    def test_non_binary_rejected(self):
        with pytest.raises(ConfigurationError):
            fractional_hamming_weight([0, 2])


class TestWithinClassHD:
    def test_block_mean(self):
        reference = np.array([1, 1, 0, 0], dtype=np.uint8)
        block = np.array([[1, 1, 0, 0], [0, 1, 0, 0]], dtype=np.uint8)
        assert within_class_hd(block, reference) == pytest.approx(0.125)

    def test_single_vector_accepted(self):
        assert within_class_hd([1, 0], [0, 0]) == pytest.approx(0.5)

    def test_counts_equivalence(self):
        """Counts formulation equals the full-block formulation."""
        rng = np.random.default_rng(0)
        reference = rng.integers(0, 2, 64, dtype=np.uint8)
        block = rng.integers(0, 2, (20, 64), dtype=np.uint8)
        full = within_class_hd(block, reference)
        counts = within_class_hd_from_counts(
            block.sum(axis=0, dtype=np.int64), 20, reference
        )
        assert counts == pytest.approx(full)

    def test_counts_all_agree_is_zero(self):
        reference = np.array([1, 0, 1], dtype=np.uint8)
        counts = np.array([10, 0, 10])
        assert within_class_hd_from_counts(counts, 10, reference) == 0.0

    def test_counts_all_disagree_is_one(self):
        reference = np.array([1, 0], dtype=np.uint8)
        counts = np.array([0, 10])
        assert within_class_hd_from_counts(counts, 10, reference) == 1.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            within_class_hd_from_counts(np.array([1, 2]), 10, [1, 0, 1])


class TestBetweenClassHD:
    def test_pair_count(self):
        readouts = [np.zeros(8, dtype=np.uint8) for _ in range(5)]
        assert between_class_hd(readouts).size == 10  # C(5,2)

    def test_identical_devices_give_zero(self):
        readouts = [np.ones(8, dtype=np.uint8)] * 3
        np.testing.assert_array_equal(between_class_hd(readouts), [0, 0, 0])

    def test_complementary_devices_give_one(self):
        a = np.zeros(8, dtype=np.uint8)
        b = np.ones(8, dtype=np.uint8)
        np.testing.assert_array_equal(between_class_hd([a, b]), [1.0])

    def test_random_devices_near_half(self):
        rng = np.random.default_rng(1)
        readouts = [rng.integers(0, 2, 4096, dtype=np.uint8) for _ in range(6)]
        values = between_class_hd(readouts)
        assert np.all(np.abs(values - 0.5) < 0.05)

    def test_single_device_rejected(self):
        with pytest.raises(ConfigurationError):
            between_class_hd([np.zeros(8, dtype=np.uint8)])

    def test_unequal_lengths_rejected(self):
        with pytest.raises(ConfigurationError):
            between_class_hd([np.zeros(8, dtype=np.uint8), np.zeros(4, dtype=np.uint8)])


class TestBetweenClassHDVectorization:
    """The Gram-matrix path must equal the per-pair loop bit for bit."""

    @staticmethod
    def loop_reference(matrix: np.ndarray) -> np.ndarray:
        """The original itertools.combinations implementation."""
        from itertools import combinations

        pairs = list(combinations(range(len(matrix)), 2))
        return np.array(
            [float((matrix[i] != matrix[j]).mean()) for i, j in pairs], dtype=float
        )

    def test_exact_equality_with_loop_on_random_fleet(self):
        rng = np.random.default_rng(2026)
        for devices, cells in [(2, 8), (5, 64), (16, 1024), (33, 4096)]:
            matrix = rng.integers(0, 2, size=(devices, cells), dtype=np.uint8)
            vectorized = between_class_hd(list(matrix))
            looped = self.loop_reference(matrix)
            assert vectorized.dtype == looped.dtype
            np.testing.assert_array_equal(vectorized, looped)

    def test_pair_ordering_is_combinations_order(self):
        # Three distinguishable devices: FHD(0,1)=1/8, FHD(0,2)=2/8,
        # FHD(1,2)=3/8 -- the result must arrive in exactly that order.
        base = np.zeros(8, dtype=np.uint8)
        one = base.copy(); one[:1] = 1
        two = base.copy(); two[1:3] = 1
        values = between_class_hd([base, one, two])
        np.testing.assert_array_equal(values, [1 / 8, 2 / 8, 3 / 8])

    def test_biased_fleet_exact(self):
        rng = np.random.default_rng(7)
        # The paper's ~62.7% ones bias, not the uniform-random case.
        matrix = (rng.random((12, 512)) < 0.627).astype(np.uint8)
        np.testing.assert_array_equal(
            between_class_hd(list(matrix)), self.loop_reference(matrix)
        )

    @pytest.mark.parametrize("devices", [2, 3, 100, 512])
    def test_bytes_equal_per_pair_oracle(self, devices):
        rng = np.random.default_rng(devices)
        matrix = (rng.random((devices, 64)) < 0.627).astype(np.uint8)
        vectorized = between_class_hd(matrix)
        assert len(vectorized) == devices * (devices - 1) // 2
        assert vectorized.tobytes() == self.loop_reference(matrix).tobytes()

    def test_float64_branch_bytes_equal_per_pair_oracle(self, monkeypatch):
        # Read-outs of FLOAT32_EXACT_BITS bits or more take the float64
        # Gram; lower the threshold so a small fleet exercises it.
        monkeypatch.setattr(hamming, "FLOAT32_EXACT_BITS", 8)
        rng = np.random.default_rng(64)
        matrix = rng.integers(0, 2, size=(9, 40), dtype=np.uint8)
        vectorized = between_class_hd(matrix)
        assert vectorized.tobytes() == self.loop_reference(matrix).tobytes()


CROSS_BOARD_METRICS = [between_class_hd, puf_min_entropy]

#: Read-out sets both cross-board metrics refuse, as lists and arrays.
MALFORMED_READOUTS = {
    "non-binary": [np.array([0, 1, 2, 1]), np.array([0, 1, 1, 1])],
    "non-binary-matrix": np.array([[0, 1, 2, 1], [0, 1, 1, 1]]),
    "negative": np.array([[0, -1], [1, 0]]),
    "non-integer": [np.array([0.0, 1.0]), np.array([1.0, 0.0])],
    "non-integer-matrix": np.array([[0.0, 1.0], [1.0, 0.0]]),
    "2-D row": [np.zeros((2, 2), dtype=np.uint8), np.zeros((2, 2), dtype=np.uint8)],
    "3-D array": np.zeros((2, 2, 2), dtype=np.uint8),
    "ragged": [np.zeros(8, dtype=np.uint8), np.zeros(4, dtype=np.uint8)],
    "one device": [np.zeros(8, dtype=np.uint8)],
    "one-row matrix": np.zeros((1, 8), dtype=np.uint8),
    "no devices": [],
}


class TestCrossBoardInputs:
    """BCHD and PUF entropy take a list of read-outs or one matrix."""

    @pytest.mark.parametrize("metric", CROSS_BOARD_METRICS, ids=lambda f: f.__name__)
    @pytest.mark.parametrize("readouts", MALFORMED_READOUTS.values(), ids=MALFORMED_READOUTS)
    def test_malformed_readouts_rejected(self, metric, readouts):
        with pytest.raises(ConfigurationError):
            metric(readouts)

    @pytest.mark.parametrize("metric", CROSS_BOARD_METRICS, ids=lambda f: f.__name__)
    def test_matrix_equals_list_of_rows(self, metric):
        rng = np.random.default_rng(11)
        matrix = (rng.random((40, 256)) < 0.627).astype(np.uint8)
        from_list = metric([row.astype(np.int64) for row in matrix])
        np.testing.assert_array_equal(metric(matrix), from_list)
        np.testing.assert_array_equal(metric(matrix.astype(bool)), from_list)
