"""Mixed-fleet campaigns are identical across execution strategies.

The homogeneous equivalence ladder (``test_equivalence.py``) gates the
single-profile fleet; this suite runs the same ladder over a
*heterogeneous* population — three base profiles, multiple process
lots, mixed cell counts — and demands exact equality between the
serial run and every sharded/checkpointed/resume variant.  The population
determinism contract (:mod:`repro.sram.population`) is what makes this
possible: board ``i``'s profile is a pure function of
``(spec, root_seed, board_id)``, so no execution strategy can disagree
about which silicon it is simulating.
"""


import pytest

from repro.analysis.campaign import LongTermCampaign
from repro.errors import CampaignInterrupted, ConfigurationError
from repro.exec import executor_for
from repro.sram.population import PopulationMember, PopulationSpec
from repro.telemetry import reset_telemetry

from tests.exec.conftest import assert_campaigns_identical, worker_counts

#: Three-member mixture exercising lots, weights and heterogeneous
#: cell counts.  At seed 7 with 12 boards it materializes multiple
#: distinct profiles spanning more than one ``sram_bytes`` value
#: (asserted below, so a strategy change cannot quietly degrade the
#: test to a homogeneous fleet).
MIXED = PopulationSpec(
    name="mix3",
    members=(
        PopulationMember(
            "ATmega32u4",
            weight=2.0,
            lots=2,
            skew_mean_spread_v=0.002,
            skew_sigma_spread=0.05,
        ),
        PopulationMember("dff-puf", noise_sigma_spread=0.1),
        PopulationMember("65nm-testchip", lots=3, sram_bytes_choices=(4096, 8192)),
    ),
)

CAMPAIGN_KWARGS = dict(
    device_count=12,
    months=3,
    measurements=30,
    population=MIXED,
    random_state=7,
)


def run_campaign(workers=1, checkpoint_dir=None):
    reset_telemetry()
    campaign = LongTermCampaign(max_workers=workers, **CAMPAIGN_KWARGS)
    return campaign.run(checkpoint_dir=checkpoint_dir)


@pytest.fixture(scope="module")
def serial_reference():
    return run_campaign()


class TestMixedFleetEquivalence:
    def test_fleet_is_actually_heterogeneous(self):
        table, index = MIXED.materialize(7, range(12))
        assert len(table) >= 3
        assert len({profile.sram_bytes for profile in table}) >= 2
        assert len(set(index)) == len(table)

    def test_result_carries_the_population_name(self, serial_reference):
        assert serial_reference.profile_name == "population:mix3"

    @pytest.mark.parametrize("workers", worker_counts())
    def test_sharded_and_vector_match_serial(self, workers, serial_reference):
        """The sharded executor at every worker count, against in-process."""
        reset_telemetry()
        result = LongTermCampaign(**CAMPAIGN_KWARGS).run(
            executor=executor_for(workers)
        )
        assert_campaigns_identical(serial_reference, result)

    def test_checkpointed_run_matches_serial(self, serial_reference, tmp_path):
        result = run_campaign(checkpoint_dir=str(tmp_path))
        assert_campaigns_identical(serial_reference, result)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_kill_and_resume_matches_serial(
        self, workers, serial_reference, tmp_path
    ):
        checkpoint_dir = str(tmp_path / f"ck-{workers}")
        reset_telemetry()
        campaign = LongTermCampaign(max_workers=workers, **CAMPAIGN_KWARGS)
        with pytest.raises(CampaignInterrupted):
            campaign.run(checkpoint_dir=checkpoint_dir, abort_after_month=1)
        reset_telemetry()
        result = LongTermCampaign.resume(checkpoint_dir, max_workers=workers)
        assert_campaigns_identical(serial_reference, result)

    def test_mixed_checkpoint_manifest_records_the_population(self, tmp_path):
        from repro.store.shardstore import load_shard_manifest

        run_campaign(checkpoint_dir=str(tmp_path))
        manifest = load_shard_manifest(str(tmp_path))
        assert manifest.config["population"] == MIXED.to_doc()


class TestPopulationConfigGuards:
    def test_population_rejects_explicit_chips(self):
        from repro.sram.chip import SRAMChip

        chip = SRAMChip(0, random_state=0)
        campaign = LongTermCampaign(
            device_count=1, months=1, measurements=5, population=MIXED
        )
        with pytest.raises(ConfigurationError):
            campaign.run(chips=[chip])

    def test_population_type_is_validated(self):
        with pytest.raises(ConfigurationError):
            LongTermCampaign(
                device_count=2, months=1, measurements=5, population="mix3"
            )
