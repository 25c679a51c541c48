"""NBTI aging of SRAM arrays.

The aging mechanism (paper Section II-B): whichever state a cell holds
while powered, NBTI raises the threshold of the switched-on PMOS, which
shrinks the threshold gap and pulls the cell's skew toward balance.
Because the stored state follows the cell's power-up preference, the
*net* drift of cell *i* is proportional to its preference imbalance
``(2 p_i - 1)`` — strongly skewed cells age fastest, balanced cells not
at all, and a cell that drifts past balance starts drifting *back*
(the non-monotonic behaviour the paper discusses in Section IV-D).

On top of the deterministic drift, real aging has a cell-to-cell random
component (defect statistics, activation randomness); it is modelled as
a Brownian term on the power-law aging clock.

Both components advance along ``tau = (t / month) ** n`` rather than
wall-clock time, so early-life aging is faster — the decelerating shape
of Fig. 6a/6c:

.. math::

    d\\,skew_i = -(2 p_i - 1)\\, A_{eff} \\, d\\tau
                + B \\,\\sqrt{d\\tau}\\; \\xi_i .

``A_eff`` folds in the stress condition (temperature, voltage, duty)
via the profile's :class:`~repro.physics.nbti.BTIModel`.
"""

from __future__ import annotations

import enum
import math
from typing import Optional

import numpy as np

from repro.errors import ConfigurationError
from repro.physics.constants import SECONDS_PER_MONTH
from repro.physics.nbti import BTIStress
from repro.sram.array import SRAMArray
from repro.sram.profiles import DeviceProfile


class DataPolicy(enum.Enum):
    """What a cell stores while the device is powered.

    Storing 0 keeps P2 switched on (NBTI raises ``Vth,P2``, pushing the
    skew *up*, toward 1); storing 1 stresses P1 and pushes the skew
    down.  The policy therefore sets the drift direction:

    ``POWER_UP``
        The cell holds its power-up state — the paper's testbed, where
        nothing overwrites the SRAM.  Net drift ``-(2p - 1)``: toward
        balance, degrading reliability (Section II-B).
    ``INVERTED``
        Firmware writes the *complement* of the power-up pattern after
        read-out — the anti-aging countermeasure of Maes & van der
        Leest (HOST 2014, the paper's ref. [5]).  Net drift
        ``+(2p - 1)``: away from balance, *reinforcing* every cell's
        preference.
    ``ALL_ZERO`` / ``ALL_ONE``
        A constant memory image (e.g. cleared or flag-filled RAM);
        drifts every skew in one common direction.
    """

    POWER_UP = "power-up"
    INVERTED = "inverted"
    ALL_ZERO = "all-zero"
    ALL_ONE = "all-one"


def drift_direction(
    data_policy: DataPolicy, probs: Optional[np.ndarray], shape: tuple
) -> np.ndarray:
    """Per-cell drift direction of one aging step, shared by both models.

    Net drift per unit tau is ``A * (P(store 0) - P(store 1))``; the
    policy decides what cells store (see :class:`DataPolicy`).
    ``probs`` are the one-probabilities (only consulted by the
    power-up-dependent policies); ``shape`` sizes the constant-policy
    result — ``(cells,)`` for one :class:`~repro.sram.array.SRAMArray`,
    ``(boards, cells)`` for a :class:`~repro.sram.fleetkernel.FleetKernel`
    row block.  The arithmetic is elementwise, so both get bitwise-equal
    directions for equal inputs.
    """
    if data_policy is DataPolicy.POWER_UP:
        return -(2.0 * probs - 1.0)
    if data_policy is DataPolicy.INVERTED:
        return 2.0 * probs - 1.0
    if data_policy is DataPolicy.ALL_ZERO:
        return np.ones(shape)
    return -np.ones(shape)  # DataPolicy.ALL_ONE


class AgingSimulator:
    """Applies BTI aging to :class:`~repro.sram.array.SRAMArray` state.

    Parameters
    ----------
    profile:
        Supplies the calibrated aging law (amplitude, dispersion, time
        exponent) and the nominal stress condition the amplitude is
        referenced to.
    """

    def __init__(self, profile: DeviceProfile):
        self._profile = profile
        self._model = profile.bti_model()

    @property
    def profile(self) -> DeviceProfile:
        """The device profile whose aging law is applied."""
        return self._profile

    def acceleration_factor(
        self, temperature_k: Optional[float] = None, voltage_v: Optional[float] = None,
        duty: Optional[float] = None,
    ) -> float:
        """Drift acceleration of the given stress over the nominal one.

        1.0 when every argument is left at the profile nominal.
        """
        nominal = self._profile.nominal_stress()
        stress = BTIStress(
            temperature_k=nominal.temperature_k if temperature_k is None else temperature_k,
            voltage_v=nominal.voltage_v if voltage_v is None else voltage_v,
            duty=nominal.duty if duty is None else duty,
        )
        return self._model.condition_factor(stress) / self._model.condition_factor(nominal)

    def equivalent_nominal_seconds(
        self,
        seconds: float,
        temperature_k: Optional[float] = None,
        voltage_v: Optional[float] = None,
        duty: Optional[float] = None,
    ) -> float:
        """Nominal-condition seconds equivalent to ``seconds`` of stress.

        An amplitude acceleration AF is a *time* acceleration
        ``AF ** (1/n)`` on the ``t**n`` aging clock.  The single-device
        simulator and the fleet kernel derive their age advance through
        this one routine, so the stress-to-clock conversion cannot
        diverge between them.
        """
        factor = self.acceleration_factor(temperature_k, voltage_v, duty)
        n = self._profile.bti_time_exponent
        return seconds * factor ** (1.0 / n)

    def age_array(
        self,
        array: SRAMArray,
        seconds: float,
        temperature_k: Optional[float] = None,
        voltage_v: Optional[float] = None,
        duty: Optional[float] = None,
        steps: int = 1,
        data_policy: DataPolicy = DataPolicy.POWER_UP,
    ) -> None:
        """Age ``array`` in place by ``seconds`` of wall-clock stress.

        Parameters
        ----------
        array:
            The array to age; its skew state and age advance.
        seconds:
            Stress duration.  Under accelerated conditions the
            *equivalent* nominal age advances faster than wall clock by
            ``acceleration_factor ** (1 / n)``.
        temperature_k, voltage_v, duty:
            Stress condition; defaults to the profile nominal.
        steps:
            Number of explicit integration sub-steps.  The drift is
            self-limiting, so even one step per month is accurate; the
            campaign driver uses its monthly cadence.
        data_policy:
            What cells store while powered (see :class:`DataPolicy`);
            defaults to the paper's hold-the-power-up-state testbed.
        """
        if not math.isfinite(seconds) or seconds < 0:
            raise ConfigurationError(
                f"seconds must be finite and non-negative, got {seconds}"
            )
        if steps <= 0:
            raise ConfigurationError(f"steps must be positive, got {steps}")
        if seconds == 0:
            return

        n = self._profile.bti_time_exponent
        equivalent_seconds = self.equivalent_nominal_seconds(
            seconds, temperature_k, voltage_v, duty
        )

        start_months = array.age_seconds / SECONDS_PER_MONTH
        end_months = (array.age_seconds + equivalent_seconds) / SECONDS_PER_MONTH
        boundaries = np.linspace(start_months, end_months, steps + 1)

        rng = array._noise_rng()
        amplitude = self._profile.bti_amplitude_v
        dispersion = self._profile.bti_dispersion_v
        needs_probs = data_policy in (DataPolicy.POWER_UP, DataPolicy.INVERTED)
        for t_start, t_end in zip(boundaries[:-1], boundaries[1:]):
            d_tau = t_end**n - t_start**n
            probs = array.one_probabilities() if needs_probs else None
            direction = drift_direction(data_policy, probs, (array.cell_count,))
            drift = direction * amplitude * d_tau
            if dispersion > 0.0:
                drift = drift + dispersion * np.sqrt(d_tau) * rng.standard_normal(
                    array.cell_count
                )
            array._apply_skew_delta(drift)
        array._advance_age(array.age_seconds + equivalent_seconds)

    def age_array_months(self, array: SRAMArray, months: float, **stress_kwargs) -> None:
        """Convenience wrapper: age by a number of mean months."""
        if months < 0:
            raise ConfigurationError(f"months cannot be negative, got {months}")
        self.age_array(array, months * SECONDS_PER_MONTH, **stress_kwargs)
