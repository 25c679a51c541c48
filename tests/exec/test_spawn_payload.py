"""Spawn payloads stay sublinear in fleet size via profile interning.

A :class:`~repro.exec.plan.ShardSpec` carries the shard's *distinct*
profiles once (``profiles``) plus per-board indices (``profile_index``)
rather than one :class:`~repro.sram.profiles.DeviceProfile` per board —
the ``spawn`` start method pickles every spec, so a 100k-board fleet
must not ship 100k profile copies.  These tests pin that contract and
the ``profile`` / ``profiles`` normalization the specs share.
"""

import dataclasses
import pickle

import pytest

from repro.errors import ConfigurationError
from repro.exec.plan import ShardSpec
from repro.exec.windows import WindowSpec
from repro.sram.population import PopulationMember, PopulationSpec
from repro.sram.profiles import ATMEGA32U4, DFF_PUF

MIXED = PopulationSpec(
    name="payload-mix",
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


def mixed_shard(board_count: int) -> ShardSpec:
    table, index = MIXED.materialize(7, range(board_count))
    return ShardSpec(
        shard_index=0,
        root_seed=7,
        board_ids=tuple(range(board_count)),
        months=2,
        measurements=10,
        profiles=table,
        profile_index=index,
        temperatures=(None, None, None),
    )


class TestPayloadSublinearity:
    def test_profile_table_stays_bounded_as_the_fleet_grows(self):
        lots_total = sum(m.lots for m in MIXED.members)
        for board_count in (16, 256, 4096):
            table, index = MIXED.materialize(7, range(board_count))
            assert len(table) <= lots_total
            assert len(index) == board_count

    def test_payload_grows_by_indices_not_profiles(self):
        small = len(pickle.dumps(mixed_shard(64)))
        large = len(pickle.dumps(mixed_shard(4096)))
        per_board = (large - small) / (4096 - 64)
        # Board ids + profile indices cost a few bytes per board; one
        # pickled DeviceProfile alone costs hundreds.  If profiles were
        # shipped per board the slope would blow straight past this.
        one_profile = len(pickle.dumps(ATMEGA32U4))
        assert per_board < 16
        assert per_board * 64 < one_profile

    def test_profile_field_names_do_not_multiply_with_boards(self):
        marker = b"bti_dispersion_v"
        small = pickle.dumps(mixed_shard(64)).count(marker)
        large = pickle.dumps(mixed_shard(4096)).count(marker)
        assert small == large

    def test_pickle_round_trip_preserves_board_profiles(self):
        shard = mixed_shard(128)
        clone = pickle.loads(pickle.dumps(shard))
        assert clone == shard
        assert clone.board_profiles == shard.board_profiles
        for position in range(len(shard.board_ids)):
            assert clone.profile_for_position(position) == shard.profile_for_position(
                position
            )


class TestProfileFieldNormalization:
    def kwargs(self, **overrides):
        base = dict(
            shard_index=0,
            root_seed=1,
            board_ids=(0, 1, 2),
            months=1,
            measurements=5,
            temperatures=(None, None),
        )
        base.update(overrides)
        return base

    def test_homogeneous_shorthand_expands_to_a_table(self):
        shard = ShardSpec(**self.kwargs(profile=ATMEGA32U4))
        assert shard.profiles == (ATMEGA32U4,)
        assert shard.profile_index == (0, 0, 0)
        assert shard.homogeneous

    def test_homogeneous_table_backfills_profile(self):
        shard = ShardSpec(
            **self.kwargs(profiles=(ATMEGA32U4,), profile_index=(0, 0, 0))
        )
        assert shard.profile == ATMEGA32U4
        assert shard.homogeneous

    def test_heterogeneous_table_keeps_profile_unset(self):
        shard = ShardSpec(
            **self.kwargs(profiles=(ATMEGA32U4, DFF_PUF), profile_index=(0, 1, 0))
        )
        assert shard.profile is None
        assert not shard.homogeneous
        assert shard.board_profiles == (ATMEGA32U4, DFF_PUF, ATMEGA32U4)

    def test_replace_round_trip_survives_normalization(self):
        shard = ShardSpec(**self.kwargs(profile=ATMEGA32U4))
        clone = dataclasses.replace(shard, fail_board=1)
        assert clone.profiles == shard.profiles
        assert clone.profile_index == shard.profile_index

    def test_conflicting_profile_and_table_rejected(self):
        with pytest.raises(ConfigurationError, match="not both"):
            ShardSpec(
                **self.kwargs(
                    profile=ATMEGA32U4,
                    profiles=(DFF_PUF,),
                    profile_index=(0, 0, 0),
                )
            )

    def test_missing_profile_information_rejected(self):
        with pytest.raises(ConfigurationError, match="profile"):
            ShardSpec(**self.kwargs())

    def test_misaligned_index_rejected(self):
        with pytest.raises(ConfigurationError, match="align"):
            ShardSpec(
                **self.kwargs(profiles=(ATMEGA32U4,), profile_index=(0,))
            )

    def test_out_of_range_index_rejected(self):
        with pytest.raises(ConfigurationError, match="point into"):
            ShardSpec(
                **self.kwargs(profiles=(ATMEGA32U4,), profile_index=(0, 1, 0))
            )

    def test_window_spec_shares_the_normalization(self):
        window = WindowSpec(
            shard_index=0,
            month=0,
            root_seed=1,
            measurements=5,
            board_ids=(0, 1),
            profiles=(ATMEGA32U4, DFF_PUF),
            profile_index=(1, 0),
        )
        assert window.profile is None
        assert window.board_profiles == (DFF_PUF, ATMEGA32U4)
