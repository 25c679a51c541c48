"""Property-based tests (hypothesis) on the population determinism contract.

The execution-level gates (``tests/exec/test_population_equivalence.py``)
prove one concrete mixed fleet identical across workers, checkpoints and
resume; these properties prove the *mechanism* for arbitrary specs:
board ``i``'s profile draw is a pure function of ``(spec, root_seed,
board_id)``, so any partition of the fleet — shard layout, window
replay after a resume, cohort batching — reconstructs the same
silicon.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exec.plan import partition_boards
from repro.sram.population import PopulationMember, PopulationSpec
from repro.sram.profiles import REGISTRY

PROFILE_NAMES = sorted(REGISTRY)

members = st.builds(
    PopulationMember,
    profile=st.sampled_from(PROFILE_NAMES),
    weight=st.floats(0.25, 4.0, allow_nan=False),
    lots=st.integers(1, 3),
    skew_mean_spread_v=st.floats(0.0, 0.005, allow_nan=False),
    skew_sigma_spread=st.floats(0.0, 0.2, allow_nan=False),
    noise_sigma_spread=st.floats(0.0, 0.2, allow_nan=False),
)

specs = st.lists(members, min_size=1, max_size=4).map(
    lambda ms: PopulationSpec(members=tuple(ms), name="prop")
)

seeds = st.integers(0, 2**32 - 1)
fleet_sizes = st.integers(1, 24)


def expanded_profiles(spec, seed, board_ids):
    table, index = spec.materialize(seed, board_ids)
    return [table[i] for i in index]


class TestDrawPurity:
    @given(specs, seeds, fleet_sizes)
    @settings(max_examples=40, deadline=None)
    def test_interning_matches_per_board_draws(self, spec, seed, boards):
        expanded = expanded_profiles(spec, seed, range(boards))
        assert expanded == [
            spec.profile_for_board(seed, board) for board in range(boards)
        ]

    @given(specs, seeds, fleet_sizes)
    @settings(max_examples=40, deadline=None)
    def test_draws_are_resume_stable(self, spec, seed, boards):
        # A resume re-materializes only the surviving boards, in
        # whatever order the checkpoint lists them — same profiles.
        board_ids = list(range(boards))
        expanded = expanded_profiles(spec, seed, board_ids)
        replay = expanded_profiles(spec, seed, list(reversed(board_ids)))
        assert replay == list(reversed(expanded))

    @given(specs, seeds, fleet_sizes, st.sampled_from([1, 2, 4]))
    @settings(max_examples=40, deadline=None)
    def test_draws_are_shard_invariant(self, spec, seed, boards, workers):
        fleet = expanded_profiles(spec, seed, range(boards))
        sharded = []
        for shard in partition_boards(range(boards), workers):
            sharded.extend(expanded_profiles(spec, seed, shard))
        assert sharded == fleet

    @given(specs, seeds, fleet_sizes)
    @settings(max_examples=40, deadline=None)
    def test_lot_quantization_bounds_the_table(self, spec, seed, boards):
        table, index = spec.materialize(seed, range(boards))
        assert len(table) <= sum(member.lots for member in spec.members)
        assert len(index) == boards
        assert set(index) == set(range(len(table)))

    @given(specs, seeds, fleet_sizes)
    @settings(max_examples=40, deadline=None)
    def test_member_labels_name_each_boards_base_profile(
        self, spec, seed, boards
    ):
        labels = spec.member_labels(seed, range(boards))
        table, index = spec.materialize(seed, range(boards))
        assert len(labels) == boards
        for position, label in enumerate(labels):
            assert label in {member.profile for member in spec.members}
            assert table[index[position]].name.startswith(label)


class TestSpecSerialization:
    @given(specs)
    @settings(max_examples=40, deadline=None)
    def test_doc_roundtrip_is_lossless(self, spec):
        clone = PopulationSpec.from_doc(spec.to_doc())
        assert clone == spec
        assert clone.digest() == spec.digest()

    @given(specs, seeds, fleet_sizes)
    @settings(max_examples=20, deadline=None)
    def test_roundtripped_spec_draws_the_same_fleet(self, spec, seed, boards):
        clone = PopulationSpec.from_doc(spec.to_doc())
        assert expanded_profiles(clone, seed, range(boards)) == expanded_profiles(
            spec, seed, range(boards)
        )
