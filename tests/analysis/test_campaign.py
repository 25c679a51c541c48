"""Tests for the long-term campaign driver."""

import numpy as np
import pytest

from repro.analysis.campaign import CampaignResult, LongTermCampaign
from repro.errors import ConfigurationError
from repro.sram.profiles import ATMEGA32U4


@pytest.fixture(scope="module")
def result() -> CampaignResult:
    campaign = LongTermCampaign(
        device_count=4, months=6, measurements=300, random_state=5
    )
    return campaign.run()


class TestCampaignRun:
    def test_snapshot_count(self, result):
        assert len(result.snapshots) == 7  # months 0..6

    def test_month_indices(self, result):
        assert [snap.month for snap in result.snapshots] == list(range(7))

    def test_references_cover_fleet(self, result):
        assert sorted(result.references) == result.board_ids

    def test_start_end_accessors(self, result):
        assert result.start is result.snapshots[0]
        assert result.end is result.snapshots[-1]

    def test_wchd_grows_with_age(self, result):
        assert result.end.wchd.mean() > result.start.wchd.mean()

    def test_noise_entropy_grows_with_age(self, result):
        assert result.end.noise_entropy.mean() > result.start.noise_entropy.mean()

    def test_stability_falls_with_age(self, result):
        assert result.end.stable_ratio.mean() < result.start.stable_ratio.mean()

    def test_hamming_weight_roughly_constant(self, result):
        drift = abs(result.end.fhw.mean() - result.start.fhw.mean())
        assert drift < 0.01

    def test_bchd_roughly_constant(self, result):
        drift = abs(result.end.bchd_mean - result.start.bchd_mean)
        assert drift < 0.01


class TestDeterminism:
    def test_same_seed_same_result(self):
        def run():
            return LongTermCampaign(
                device_count=2, months=2, measurements=100, random_state=9
            ).run()

        a, b = run(), run()
        np.testing.assert_array_equal(a.end.wchd, b.end.wchd)
        np.testing.assert_array_equal(a.end.noise_entropy, b.end.noise_entropy)

    def test_different_seeds_differ(self):
        a = LongTermCampaign(device_count=2, months=1, measurements=100,
                             random_state=1).run()
        b = LongTermCampaign(device_count=2, months=1, measurements=100,
                             random_state=2).run()
        assert not np.array_equal(a.end.wchd, b.end.wchd)


class TestOptions:
    def test_external_fleet_injection(self, small_profile):
        from repro.sram.chip import SRAMChip

        chips = [SRAMChip(i, small_profile, random_state=4) for i in range(2)]
        campaign = LongTermCampaign(
            device_count=2, months=1, measurements=50, profile=small_profile
        )
        result = campaign.run(chips=chips)
        assert result.board_ids == [0, 1]
        # The chips' exported states seed the campaign's fleet kernel;
        # the chips themselves are not advanced.
        assert [chip.power_up_count for chip in chips] == [0, 0]
        manufactured = LongTermCampaign(
            device_count=2, months=1, measurements=50, profile=small_profile,
            random_state=4,
        ).run()
        for a, b in zip(result.snapshots, manufactured.snapshots):
            np.testing.assert_array_equal(a.wchd, b.wchd)
            np.testing.assert_array_equal(a.bchd_pairs, b.bchd_pairs)

    def test_injected_fleet_keeps_its_own_ids_under_rollups(self, small_profile):
        """Rollup shards follow fleet positions, not board ids."""
        from repro.sram.chip import SRAMChip
        from repro.telemetry import get_rollups, reset_telemetry
        from repro.telemetry.runtime import rollups_enabled

        from tests.exec.conftest import InlineWindowPool, assert_campaigns_identical

        assert rollups_enabled()
        runs = []
        for workers in (1, 2):
            reset_telemetry()
            chips = [SRAMChip(i, small_profile, random_state=4) for i in (3, 7)]
            campaign = LongTermCampaign(
                device_count=2, months=2, measurements=50, profile=small_profile
            )
            result = campaign.run(chips=chips, executor=InlineWindowPool(workers))
            assert result.board_ids == [3, 7]
            # Worker resource figures follow the worker count; every
            # board-metric scope must not.
            rollups = {
                name: stats
                for name, stats in get_rollups().snapshot().items()
                if "scope=worker" not in name
            }
            runs.append((result, rollups))
        (serial, serial_rollups), (sharded, sharded_rollups) = runs
        assert_campaigns_identical(serial, sharded)
        assert serial_rollups
        assert serial_rollups == sharded_rollups

    def test_injected_fleet_reports_the_boards_it_runs(self, small_profile):
        """``campaign.devices`` and the run span count the injected chips."""
        from repro.sram.chip import SRAMChip
        from repro.telemetry import get_metrics, get_tracer, reset_telemetry, set_tracing

        reset_telemetry()
        set_tracing(True)
        try:
            chips = [SRAMChip(i, small_profile, random_state=4) for i in (3, 5)]
            LongTermCampaign(
                device_count=16, months=1, measurements=50, profile=small_profile
            ).run(chips=chips)
            (run_span,) = [
                span for span in get_tracer().roots if span.name == "campaign.run"
            ]
        finally:
            set_tracing(False)
        assert get_metrics().snapshot()["campaign.devices"]["value"] == 2
        assert run_span.attributes["devices"] == 2

    def test_fail_board_names_an_injected_board_id(self, small_profile):
        from repro.errors import CampaignExecutionError
        from repro.sram.chip import SRAMChip

        chips = [SRAMChip(i, small_profile, random_state=4) for i in (3, 5)]
        campaign = LongTermCampaign(
            device_count=2, months=1, measurements=50, profile=small_profile,
            fail_board=5,
        )
        with pytest.raises(CampaignExecutionError) as excinfo:
            campaign.run(chips=chips)
        assert excinfo.value.board_id == 5

    def test_fail_board_outside_the_run_fleet_rejected(self, small_profile):
        from repro.sram.chip import SRAMChip

        chips = [SRAMChip(i, small_profile, random_state=4) for i in (3, 5)]
        campaign = LongTermCampaign(
            device_count=8, months=1, measurements=50, profile=small_profile,
            fail_board=1,
        )
        with pytest.raises(ConfigurationError, match="fail_board 1"):
            campaign.run(chips=chips)
        with pytest.raises(ConfigurationError, match="fail_board 8"):
            LongTermCampaign(device_count=8, months=1, fail_board=8).run()

    def test_temperature_walk_runs(self):
        campaign = LongTermCampaign(
            device_count=2, months=2, measurements=100,
            temperature_walk_k=1.0, random_state=3,
        )
        result = campaign.run()
        assert len(result.snapshots) == 3

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            LongTermCampaign(device_count=0)
        with pytest.raises(ConfigurationError):
            LongTermCampaign(months=0)
        with pytest.raises(ConfigurationError):
            LongTermCampaign(measurements=1)
        with pytest.raises(ConfigurationError):
            LongTermCampaign(temperature_walk_k=-1.0)
        with pytest.raises(ConfigurationError):
            LongTermCampaign(aging_steps_per_month=0)

    @pytest.mark.parametrize("acceleration", [0.0, float("nan"), float("inf")])
    def test_non_finite_or_nonpositive_acceleration_rejected_up_front(
        self, acceleration
    ):
        with pytest.raises(ConfigurationError, match="aging_acceleration"):
            LongTermCampaign(aging_acceleration=acceleration)

    def test_result_snapshot_count_validated(self):
        campaign = LongTermCampaign(device_count=2, months=2, measurements=50)
        result = campaign.run()
        with pytest.raises(ConfigurationError):
            CampaignResult(
                profile_name=ATMEGA32U4.name,
                months=5,
                measurements=50,
                board_ids=result.board_ids,
                references=result.references,
                snapshots=result.snapshots,
            )
