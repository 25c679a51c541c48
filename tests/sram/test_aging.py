"""Tests for the NBTI aging simulator."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.physics.constants import SECONDS_PER_MONTH
from repro.sram.aging import AgingSimulator
from repro.sram.array import SRAMArray
from repro.sram.profiles import ATMEGA32U4


@pytest.fixture
def simulator() -> AgingSimulator:
    return AgingSimulator(ATMEGA32U4)


def fresh_array(seed: int = 7, cells: int = 8192) -> SRAMArray:
    return SRAMArray(ATMEGA32U4, cell_count=cells, random_state=seed)


class TestAccelerationFactor:
    def test_unity_at_nominal(self, simulator):
        assert simulator.acceleration_factor() == pytest.approx(1.0)

    def test_temperature_accelerates(self, simulator):
        assert simulator.acceleration_factor(temperature_k=358.15) > 5.0

    def test_voltage_accelerates(self, simulator):
        assert simulator.acceleration_factor(voltage_v=6.0) == pytest.approx(
            (6.0 / 5.0) ** 3, rel=1e-6
        )

    def test_continuous_power_accelerates_over_duty_cycle(self, simulator):
        factor = simulator.acceleration_factor(duty=1.0)
        assert factor == pytest.approx((1.0 / ATMEGA32U4.power_duty) ** 0.35, rel=1e-6)


class TestAgingEffects:
    def test_mean_absolute_skew_shrinks(self, simulator):
        array = fresh_array()
        before = np.abs(array.skew_v).mean()
        simulator.age_array_months(array, 24.0, steps=4)
        assert np.abs(array.skew_v).mean() < before

    def test_aging_preserves_bias_direction(self, simulator):
        array = fresh_array()
        simulator.age_array_months(array, 24.0, steps=4)
        probs = array.one_probabilities()
        assert 0.55 < probs.mean() < 0.72

    def test_stability_decreases(self, simulator):
        array = fresh_array()
        probs_before = array.one_probabilities()
        simulator.age_array_months(array, 24.0, steps=4)
        probs_after = array.one_probabilities()
        stable = lambda p: ((p < 1e-9) | (p > 1 - 1e-9)).mean()  # noqa: E731
        assert stable(probs_after) < stable(probs_before)

    def test_early_aging_faster_than_late(self, simulator):
        """The paper's IV-D observation: degradation decelerates."""
        array = fresh_array()
        skew_0 = array.skew_v.copy()
        simulator.age_array_months(array, 1.0)
        delta_early = np.abs(array.skew_v - skew_0).mean()
        simulator.age_array_months(array, 22.0, steps=22)
        skew_23 = array.skew_v.copy()
        simulator.age_array_months(array, 1.0)
        delta_late = np.abs(array.skew_v - skew_23).mean()
        assert delta_early > delta_late

    def test_age_advances_clock(self, simulator):
        array = fresh_array()
        simulator.age_array_months(array, 2.0)
        assert array.age_seconds == pytest.approx(2 * SECONDS_PER_MONTH)

    def test_zero_seconds_is_noop(self, simulator):
        array = fresh_array()
        before = array.skew_v.copy()
        simulator.age_array(array, 0.0)
        np.testing.assert_array_equal(array.skew_v, before)

    def test_accelerated_stress_advances_equivalent_age(self, simulator):
        array = fresh_array()
        simulator.age_array(array, 3600.0, temperature_k=358.15)
        assert array.age_seconds > 3600.0


class TestValidation:
    def test_negative_seconds_rejected(self, simulator):
        with pytest.raises(ConfigurationError):
            simulator.age_array(fresh_array(), -1.0)

    @pytest.mark.parametrize("seconds", [float("nan"), float("inf")])
    def test_non_finite_seconds_rejected(self, simulator, seconds):
        array = fresh_array()
        before = array.export_state()
        with pytest.raises(ConfigurationError, match="finite"):
            simulator.age_array(array, seconds)
        with pytest.raises(ConfigurationError, match="finite"):
            simulator.age_array_months(array, seconds / SECONDS_PER_MONTH)
        np.testing.assert_array_equal(array.skew_v, before["skew_v"])
        assert array.age_seconds == before["age_seconds"]

    def test_zero_steps_rejected(self, simulator):
        with pytest.raises(ConfigurationError):
            simulator.age_array(fresh_array(), 100.0, steps=0)

    def test_negative_months_rejected(self, simulator):
        with pytest.raises(ConfigurationError):
            simulator.age_array_months(fresh_array(), -1.0)


class TestDeterminism:
    def test_same_seed_same_trajectory(self, simulator):
        a, b = fresh_array(3, 1024), fresh_array(3, 1024)
        simulator.age_array_months(a, 6.0, steps=6)
        simulator.age_array_months(b, 6.0, steps=6)
        np.testing.assert_array_equal(a.skew_v, b.skew_v)

    def test_step_granularity_small_effect(self, simulator):
        """The drift is self-limiting: coarse stepping stays accurate."""
        profile = ATMEGA32U4.with_overrides(bti_dispersion_v=0.0)
        sim = AgingSimulator(profile)
        coarse = SRAMArray(profile, cell_count=4096, random_state=9)
        fine = SRAMArray(profile, cell_count=4096, random_state=9)
        sim.age_array_months(coarse, 24.0, steps=2)
        sim.age_array_months(fine, 24.0, steps=96)
        np.testing.assert_allclose(coarse.skew_v, fine.skew_v, atol=5e-4)
