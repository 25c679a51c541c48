"""Min-entropy metrics (paper Sections IV-B.4 and IV-C.2).

For a binary source with probabilities ``p0``/``p1`` the min-entropy is
``-log2(max(p0, p1))``.  Two averages of this quantity appear in the
paper, distinguished by *what varies*:

* **PUF entropy** ``H_min,PUF`` — per bit *location*, the probabilities
  are taken **across devices** (one read-out per device).  It measures
  uniqueness: how unpredictable a device's bit is given other devices.
* **Noise entropy** ``H_min,noise`` — per cell, the probabilities are
  taken **across repeated measurements of one device**.  It measures
  the randomness available to an SRAM-PUF-based TRNG.

Both are *estimates* from finite samples (16 devices, 1,000
measurements); the library reproduces the paper's estimators exactly —
including their small-sample bias, which is why the paper's PUF entropy
reads 64.92 % while the asymptotic value for a 62.7 %-biased source
would be ``-log2(0.627) = 67.3 %``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.io.bitutil import ensure_bit_matrix


def min_entropy_bits(probabilities: np.ndarray) -> np.ndarray:
    """Per-source min-entropy ``-log2(max(p, 1-p))`` in bits.

    ``probabilities`` are one-probabilities in [0, 1]; values of
    exactly 0 or 1 yield 0 bits.
    """
    probs = np.asarray(probabilities, dtype=float)
    if probs.size == 0:
        raise ConfigurationError("cannot compute entropy of an empty array")
    if probs.min() < 0.0 or probs.max() > 1.0:
        raise ConfigurationError("probabilities must lie in [0, 1]")
    return -np.log2(np.maximum(probs, 1.0 - probs))


def average_min_entropy(probabilities: np.ndarray) -> float:
    """Mean of :func:`min_entropy_bits` — the paper's entropy average."""
    return float(min_entropy_bits(probabilities).mean())


def puf_min_entropy(readouts: Sequence) -> float:
    """PUF entropy from one read-out per device.

    Per bit location, ``p1`` is estimated as the fraction of devices
    whose bit is 1; the result is the average min-entropy over
    locations (paper Section IV-B.4, with probabilities "computed over
    all measured SRAMs").  A ``(devices, bits)`` array is taken as it
    is (:func:`~repro.io.bitutil.ensure_bit_matrix`).
    """
    bits = ensure_bit_matrix(readouts)
    if len(bits) < 2:
        raise ConfigurationError("PUF entropy needs at least two devices")
    return average_min_entropy(bits.mean(axis=0))


def noise_min_entropy(measurements: np.ndarray) -> float:
    """Noise entropy from a (measurements x cells) block of one device.

    Per cell, ``p1`` is the fraction of the block's power-ups that read
    1 (the one-probability estimate); the result is the average
    min-entropy over cells (paper Section IV-C.2).
    """
    block = np.asarray(measurements)
    if block.ndim != 2:
        raise ConfigurationError(
            f"measurements must be 2-D (measurements x cells), got shape {block.shape}"
        )
    if block.shape[0] < 2:
        raise ConfigurationError("noise entropy needs at least two measurements")
    if block.min() < 0 or block.max() > 1:
        raise ConfigurationError("bit matrix may only contain 0 and 1")
    return average_min_entropy(block.mean(axis=0))


def noise_min_entropy_from_counts(ones_counts: np.ndarray, measurements: int) -> float:
    """Noise entropy from per-cell ones-counts (statistical fidelity)."""
    counts = np.asarray(ones_counts)
    if measurements < 2:
        raise ConfigurationError(f"measurements must be >= 2, got {measurements}")
    if counts.size == 0:
        raise ConfigurationError("cannot compute entropy of an empty array")
    if counts.min() < 0 or counts.max() > measurements:
        raise ConfigurationError("ones_counts out of range for the measurement count")
    return average_min_entropy(counts / float(measurements))
