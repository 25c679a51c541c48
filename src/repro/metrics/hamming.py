"""Hamming distance and weight metrics.

Definitions follow the paper's Section IV-A:

* **Hamming distance (HD)** — number of differing bit positions; the
  **fractional** HD (FHD) divides by the length.
* **Within-class HD (WCHD)** — FHD between a measurement and the
  *reference* (first-ever) pattern of the *same* device; the paper's
  reliability metric.
* **Between-class HD (BCHD)** — FHD between the read-outs of two
  *different* devices; the paper's uniqueness metric (ideally ≈50 %).
* **Fractional Hamming weight (FHW)** — fraction of 1-bits; the bias
  metric (the paper's devices sit at ≈62.7 %).

All functions accept 0/1 integer arrays.  ``*_from_counts`` variants
consume Binomial ones-counts (statistical fidelity) instead of raw bit
matrices; the two agree in distribution.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.io.bitutil import ensure_bit_matrix, ensure_bits


def hamming_distance(a, b) -> int:
    """Number of positions where the two bit vectors differ."""
    av = ensure_bits(a)
    bv = ensure_bits(b, length=av.size)
    return int(np.count_nonzero(av != bv))


def fractional_hamming_distance(a, b) -> float:
    """Hamming distance divided by the vector length."""
    av = ensure_bits(a)
    if av.size == 0:
        raise ConfigurationError("cannot compute FHD of empty vectors")
    return hamming_distance(av, b) / av.size


def fractional_hamming_weight(bits) -> float:
    """Fraction of 1-bits in a vector or per-measurement matrix mean.

    Accepts a 1-D bit vector or a 2-D (measurements x cells) matrix;
    for a matrix the mean weight over all entries is returned, matching
    the paper's monthly FHW over 1,000 consecutive measurements.
    """
    arr = np.asarray(bits)
    if arr.size == 0:
        raise ConfigurationError("cannot compute FHW of an empty array")
    if arr.ndim not in (1, 2):
        raise ConfigurationError(f"bits must be 1-D or 2-D, got shape {arr.shape}")
    if arr.min() < 0 or arr.max() > 1:
        raise ConfigurationError("bit array may only contain 0 and 1")
    return float(arr.mean())


def fractional_hamming_weight_from_counts(ones_counts: np.ndarray, measurements: int) -> float:
    """FHW over a measurement block given per-cell ones-counts."""
    counts = np.asarray(ones_counts)
    if measurements <= 0:
        raise ConfigurationError(f"measurements must be positive, got {measurements}")
    if counts.size == 0:
        raise ConfigurationError("cannot compute FHW of an empty array")
    if counts.min() < 0 or counts.max() > measurements:
        raise ConfigurationError("ones_counts out of range for the measurement count")
    return float(counts.mean() / measurements)


def within_class_hd(measurements, reference) -> float:
    """Mean FHD of a block of measurements against a reference pattern.

    ``measurements`` is a (count x cells) matrix (or a single vector);
    ``reference`` is the device's first-ever read-out.  The mean FHD
    over the block is the paper's monthly WCHD data point.
    """
    ref = ensure_bits(reference)
    block = np.asarray(measurements)
    if block.ndim == 1:
        block = block[np.newaxis, :]
    if block.ndim != 2 or block.shape[1] != ref.size:
        raise ConfigurationError(
            f"measurements shape {block.shape} incompatible with reference length {ref.size}"
        )
    return float((block != ref[np.newaxis, :]).mean())


def within_class_hd_from_counts(
    ones_counts: np.ndarray, measurements: int, reference
) -> float:
    """WCHD over a block given per-cell ones-counts.

    A cell whose reference bit is 1 disagrees in ``measurements -
    ones`` of the block's power-ups; a reference-0 cell disagrees in
    ``ones`` of them.  Averaging over cells and measurements gives the
    identical statistic as :func:`within_class_hd` on the full block.
    """
    ref = ensure_bits(reference)
    counts = np.asarray(ones_counts)
    if counts.shape != ref.shape:
        raise ConfigurationError(
            f"ones_counts shape {counts.shape} != reference shape {ref.shape}"
        )
    if measurements <= 0:
        raise ConfigurationError(f"measurements must be positive, got {measurements}")
    disagreements = np.where(ref == 1, measurements - counts, counts)
    return float(disagreements.mean() / measurements)


#: Read-outs shorter than this many bits get a float32 Gram in
#: :func:`between_class_hd`: float32 represents every integer up to
#: 2**24 exactly.
FLOAT32_EXACT_BITS = 2**24


def between_class_hd(readouts: Sequence) -> np.ndarray:
    """Pairwise FHDs between device read-outs.

    ``readouts`` is one read-out per device; the result contains the
    FHD of every unordered device pair (``n*(n-1)/2`` values), the
    population summarised in Fig. 5 and tracked monthly in Table I.
    Pairs appear in ``itertools.combinations`` order: (0,1), (0,2),
    ..., (n-2,n-1).  A ``(devices, bits)`` array is taken as it is
    (:func:`~repro.io.bitutil.ensure_bit_matrix`).
    """
    bits = ensure_bit_matrix(readouts)
    if len(bits) < 2:
        raise ConfigurationError("BCHD needs at least two devices")
    devices, length = bits.shape
    # For 0/1 vectors HD(x, y) = |x| + |y| - 2 x.y, so one Gram matrix
    # replaces the n*(n-1)/2 per-pair comparisons.  Every entry and
    # every partial sum of the Gram is an integer no larger than
    # ``length``; doubling is exact, and both steps of
    # (-2 x.y + |x|) + |y| land on integers of magnitude <= ``length``.
    # Below FLOAT32_EXACT_BITS float32 holds all of them exactly
    # (float64 above), so the distances are exact integers and
    # count/length is the same float64 division the per-pair mean
    # performed — results equal the loop bit for bit (docs/kernel.md).
    exact32 = length < FLOAT32_EXACT_BITS
    matrix = bits.astype(np.float32 if exact32 else np.float64)
    distances = matrix @ matrix.T
    ones = np.diagonal(distances).copy()
    distances *= -2.0
    distances += ones[:, np.newaxis]
    distances += ones
    # The upper triangle, row by row, is itertools.combinations order.
    pairs = np.empty(devices * (devices - 1) // 2)
    start = 0
    for row in range(devices - 1):
        stop = start + devices - 1 - row
        pairs[start:stop] = distances[row, row + 1 :]
        start = stop
    pairs /= length
    return pairs
