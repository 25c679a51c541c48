"""Tests for the study configuration."""

import pytest

from repro.core.config import StudyConfig
from repro.errors import ConfigurationError
from repro.sram.profiles import ATMEGA32U4


class TestStudyConfig:
    def test_defaults_reproduce_paper_setup(self):
        config = StudyConfig()
        assert config.device_count == 16
        assert config.months == 24
        assert config.measurements == 1000
        assert config.profile is ATMEGA32U4

    def test_frozen(self):
        config = StudyConfig()
        with pytest.raises(AttributeError):
            config.months = 12

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"device_count": 1},
            {"months": 0},
            {"measurements": 1},
            {"initial_measurements": 1},
            {"temperature_walk_k": -0.5},
            {"aging_steps_per_month": 0},
            {"aging_acceleration": 0.0},
            {"aging_acceleration": float("nan")},
            {"aging_acceleration": float("inf")},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            StudyConfig(**kwargs)
