"""Power-up sampling helpers.

Free-function conveniences over the two simulation fidelities, plus
:class:`PowerUpSample` — the bundle a monthly evaluation consumes: the
ones-counts of a block of consecutive measurements together with the
first full read-out of that block (needed for BCHD).

This module also owns the **single source of truth** for the power-up
physics shared by the single-device model
(:class:`~repro.sram.array.SRAMArray`) and the fleet kernel
(:class:`~repro.sram.fleetkernel.FleetKernel`):
:func:`one_probabilities_from_skew` derives the per-cell
one-probability ``Phi(skew / sigma)`` and
:func:`resolve_power_up_states` turns skew plus drawn noise into
observed bits.  Both call these two routines, so the kernel identity
gate (``docs/kernel.md``) verifies one derivation, not two parallel
copies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np
from scipy.special import ndtr

from repro.errors import ConfigurationError
from repro.telemetry.profiling import PHASE_NOISE_DRAW, PHASE_POWERUP
from repro.telemetry.runtime import get_profiler

if TYPE_CHECKING:  # pragma: no cover - typing aid only
    from repro.sram.chip import SRAMChip


def one_probabilities_from_skew(skew_v: np.ndarray, sigma_v: float) -> np.ndarray:
    """Per-cell probability of powering up to 1: ``Phi(skew / sigma)``.

    The shared one-probability derivation of both models.  Uses the
    standard-normal CDF ``scipy.special.ndtr`` directly — bitwise
    identical to ``scipy.stats.norm.cdf`` (which wraps it) without the
    distribution-object overhead, and shape-polymorphic: a scalar
    array gives per-cell probabilities, a ``(boards, cells)`` matrix
    gives the whole fleet's in one call.
    """
    if sigma_v <= 0:
        raise ConfigurationError(f"noise sigma must be positive, got {sigma_v}")
    return ndtr(np.asarray(skew_v) / sigma_v)


def resolve_power_up_states(skew_v: np.ndarray, noise_v: np.ndarray) -> np.ndarray:
    """Observed power-up bits from skew plus drawn noise.

    A cell reads 1 exactly when its skew-plus-noise is positive.  The
    arguments broadcast, so a single array passes ``skew[newaxis, :]``
    against a ``(count, cells)`` noise block and the fleet kernel passes
    a ``(rows, cells)`` skew block against same-shape noise; the
    elementwise arithmetic — and therefore every resolved bit — is
    identical either way.
    """
    return (skew_v + noise_v > 0.0).astype(np.uint8)


@dataclass(frozen=True)
class PowerUpSample:
    """Sufficient statistics of a block of consecutive power-ups.

    Attributes
    ----------
    measurements:
        Number of power-ups in the block (the paper uses 1,000).
    ones_counts:
        Per-cell count of 1 observations over the block.
    first_readout:
        The first measurement of the block as a full bit vector (used
        as the monthly BCHD/PUF-entropy read-out).
    """

    measurements: int
    ones_counts: np.ndarray
    first_readout: np.ndarray

    def __post_init__(self) -> None:
        if self.measurements <= 0:
            raise ConfigurationError(
                f"measurements must be positive, got {self.measurements}"
            )
        if self.ones_counts.shape != self.first_readout.shape:
            raise ConfigurationError(
                "ones_counts and first_readout must describe the same cells"
            )
        if self.ones_counts.size and int(self.ones_counts.max()) > self.measurements:
            raise ConfigurationError("ones_counts cannot exceed the measurement count")

    @property
    def cell_count(self) -> int:
        """Number of cells covered by the sample."""
        return int(self.ones_counts.size)

    @property
    def one_probability_estimates(self) -> np.ndarray:
        """Per-cell one-probability estimates (ones / measurements)."""
        return self.ones_counts / float(self.measurements)


def measure_power_ups(
    chip: SRAMChip, count: int, temperature_k: Optional[float] = None
) -> np.ndarray:
    """Measurement-level sampling: ``(count, read_bits)`` bit matrix."""
    with get_profiler().phase(PHASE_POWERUP):
        bits = chip.read_startup(count, temperature_k)
    return bits[np.newaxis, :] if bits.ndim == 1 else bits


def binomial_ones_counts(
    chip: SRAMChip, measurements: int, temperature_k: Optional[float] = None
) -> np.ndarray:
    """Statistical sampling: per-cell ones-counts over ``measurements``."""
    with get_profiler().phase(PHASE_NOISE_DRAW):
        return chip.read_window_ones_counts(measurements, temperature_k)


def sample_measurement_block(
    chip: SRAMChip,
    measurements: int,
    temperature_k: Optional[float] = None,
    statistical: bool = True,
) -> PowerUpSample:
    """Draw one monthly-evaluation block from a chip.

    With ``statistical=True`` (default) the block's ones-counts come
    from one Binomial draw per cell and only the first read-out is
    simulated at measurement level; with ``statistical=False`` all
    ``measurements`` power-ups are simulated bit-by-bit.  The two are
    identically distributed (see ``benchmarks/bench_ablation_fidelity``).
    """
    if measurements <= 0:
        raise ConfigurationError(f"measurements must be positive, got {measurements}")
    if statistical:
        profiler = get_profiler()
        with profiler.phase(PHASE_POWERUP):
            first = chip.read_startup(1, temperature_k)
        if measurements == 1:
            counts = first.astype(np.int64)
        else:
            with profiler.phase(PHASE_NOISE_DRAW):
                counts = first + chip.read_window_ones_counts(
                    measurements - 1, temperature_k
                )
        return PowerUpSample(measurements, counts, first)
    block = measure_power_ups(chip, measurements, temperature_k)
    return PowerUpSample(
        measurements, block.sum(axis=0, dtype=np.int64), block[0].astype(np.uint8)
    )
