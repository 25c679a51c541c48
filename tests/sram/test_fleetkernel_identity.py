"""Fleet kernel ≡ single-device oracle, operation by operation.

The :class:`~repro.sram.fleetkernel.FleetKernel` contract is absolute:
for the same seed, every batched operation — manufacture, power-up
reads, measurement blocks at either fidelity, aging, state export —
produces **bit-identical** per-board results to a fleet of
:class:`~repro.sram.chip.SRAMChip` objects, and leaves every board's
random stream at the same position.  These tests enforce the contract
operation by operation, including across row-block boundaries; the
campaign-level suites (``tests/exec``, ``tests/store``) then inherit
it.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.monthly import evaluate_board, evaluate_fleet
from repro.errors import ConfigurationError
from repro.rng import SeedHierarchy
from repro.sram import fleetkernel
from repro.sram.aging import AgingSimulator, DataPolicy
from repro.sram.chip import SRAMChip
from repro.sram.fleetkernel import FleetKernel
from repro.sram.powerup import sample_measurement_block
from repro.sram.profiles import ATMEGA32U4

SEED = 11
BOARD_IDS = (0, 1, 2, 5)
#: Small enough to keep every test fast, big enough to be a real array.
PROFILE = ATMEGA32U4.with_overrides(
    name="atmega32u4-kerneltest", sram_bytes=48, read_bytes=24
)


def scalar_fleet(board_ids=BOARD_IDS, profile=PROFILE, seed=SEED):
    seeds = SeedHierarchy(seed)
    return [SRAMChip(b, profile, random_state=seeds) for b in board_ids]


def vector_fleet(board_ids=BOARD_IDS, profile=PROFILE, seed=SEED):
    return FleetKernel.manufacture(board_ids, profile, root_seed=seed)


def assert_streams_aligned(kernel: FleetKernel, chips) -> None:
    """Kernel and chips' generators must sit at the same stream position."""
    states = kernel.export_states()
    for chip in chips:
        scalar_state = chip.array.export_state()
        assert states[chip.chip_id]["rng_state"] == scalar_state["rng_state"]


def assert_states_equal(kernel: FleetKernel, chips) -> None:
    """Every exported field of every board equals its chip's export."""
    states = kernel.export_states()
    for chip in chips:
        scalar_state = chip.array.export_state()
        state = states[chip.chip_id]
        assert state["rng_state"] == scalar_state["rng_state"]
        np.testing.assert_array_equal(state["skew_v"], scalar_state["skew_v"])
        assert state["age_seconds"] == scalar_state["age_seconds"]
        assert state["power_up_count"] == scalar_state["power_up_count"]


class TestManufacture:
    def test_skew_rows_equal_scalar_chips(self):
        kernel = vector_fleet()
        chips = scalar_fleet()
        for index, chip in enumerate(chips):
            np.testing.assert_array_equal(
                kernel.skew_v[index], chip.array.export_state()["skew_v"]
            )
        assert_streams_aligned(kernel, chips)

    def test_board_order_is_caller_order_not_sorted(self):
        ids = (3, 0, 7)
        kernel = FleetKernel.manufacture(ids, PROFILE, root_seed=SEED)
        assert kernel.board_ids == ids
        for index, board_id in enumerate(ids):
            chip = SRAMChip(board_id, PROFILE, random_state=SeedHierarchy(SEED))
            np.testing.assert_array_equal(
                kernel.skew_v[index], chip.array.export_state()["skew_v"]
            )

    def test_rejects_empty_duplicate_and_negative_fleets(self):
        with pytest.raises(ConfigurationError):
            FleetKernel.manufacture((), PROFILE)
        with pytest.raises(ConfigurationError):
            FleetKernel.manufacture((1, 1), PROFILE)
        with pytest.raises(ConfigurationError):
            FleetKernel.manufacture((-1, 0), PROFILE)

    @pytest.mark.parametrize("field", ["age_seconds", "power_up_counts"])
    @pytest.mark.parametrize("length", [len(BOARD_IDS) - 1, len(BOARD_IDS) + 1])
    def test_rejects_per_board_state_of_wrong_shape(self, field, length):
        kernel = vector_fleet()
        arguments = dict(
            board_ids=BOARD_IDS,
            profile=PROFILE,
            skew_v=np.array(kernel.skew_v),
            rngs=[np.random.default_rng(b) for b in BOARD_IDS],
            age_seconds=np.zeros(len(BOARD_IDS)),
            power_up_counts=np.zeros(len(BOARD_IDS), dtype=np.int64),
        )
        arguments[field] = np.zeros(length)
        with pytest.raises(ConfigurationError, match=field):
            FleetKernel(**arguments)


class TestReadStartup:
    def test_rows_equal_scalar_read_startup(self):
        kernel = vector_fleet()
        chips = scalar_fleet()
        for _ in range(3):  # repeated reads must stay in lockstep
            rows = kernel.read_startup()
            for index, chip in enumerate(chips):
                np.testing.assert_array_equal(rows[index], chip.read_startup())
        assert_streams_aligned(kernel, chips)

    def test_temperature_override_matches_scalar(self):
        kernel = vector_fleet()
        chips = scalar_fleet()
        rows = kernel.read_startup(temperature_k=320.0)
        for index, chip in enumerate(chips):
            np.testing.assert_array_equal(
                rows[index], chip.read_startup(temperature_k=320.0)
            )


class TestMeasureBlock:
    @pytest.mark.parametrize("statistical", [True, False], ids=["statistical", "full-sim"])
    def test_counts_and_first_readout_equal_scalar(self, statistical):
        kernel = vector_fleet()
        chips = scalar_fleet()
        counts, first = kernel.measure_block(60, statistical=statistical)
        for index, chip in enumerate(chips):
            sample = sample_measurement_block(chip, 60, statistical=statistical)
            np.testing.assert_array_equal(counts[index], sample.ones_counts)
            assert counts[index].dtype == sample.ones_counts.dtype
            np.testing.assert_array_equal(first[index], sample.first_readout)
            assert first[index].dtype == sample.first_readout.dtype
        assert_streams_aligned(kernel, chips)

    def test_single_measurement_block(self):
        kernel = vector_fleet()
        chips = scalar_fleet()
        counts, first = kernel.measure_block(1)
        for index, chip in enumerate(chips):
            sample = sample_measurement_block(chip, 1)
            np.testing.assert_array_equal(counts[index], sample.ones_counts)
            np.testing.assert_array_equal(first[index], sample.first_readout)

    def test_temperature_override_matches_scalar(self):
        kernel = vector_fleet()
        chips = scalar_fleet()
        counts, _ = kernel.measure_block(40, temperature_k=310.0)
        for index, chip in enumerate(chips):
            sample = sample_measurement_block(chip, 40, temperature_k=310.0)
            np.testing.assert_array_equal(counts[index], sample.ones_counts)

    def test_rejects_nonpositive_measurements(self):
        with pytest.raises(ConfigurationError):
            vector_fleet().measure_block(0)

    def test_full_sim_drawn_in_measurement_blocks_matches_scalar(self, monkeypatch):
        """Measurement-level noise drawn 4 power-ups at a time, 4, 4, 2."""
        monkeypatch.setattr(fleetkernel, "ROW_BLOCK_CELLS", 4 * PROFILE.cell_count)
        blocks = fleetkernel.row_blocks(10, PROFILE.cell_count)
        assert [(s.start, s.stop) for s in blocks] == [(0, 4), (4, 8), (8, 10)]
        kernel = vector_fleet()
        chips = scalar_fleet()
        counts, first = kernel.measure_block(10, statistical=False)
        for index, chip in enumerate(chips):
            sample = sample_measurement_block(chip, 10, statistical=False)
            np.testing.assert_array_equal(counts[index], sample.ones_counts)
            np.testing.assert_array_equal(first[index], sample.first_readout)
        assert_states_equal(kernel, chips)


class TestAging:
    @pytest.mark.parametrize("policy", list(DataPolicy))
    def test_drift_equals_scalar_simulator(self, policy):
        kernel = vector_fleet()
        chips = scalar_fleet()
        simulator = AgingSimulator(PROFILE)
        for months in (1.0, 2.5):
            kernel.age_months(months, steps=2, data_policy=policy)
            for chip in chips:
                simulator.age_array_months(
                    chip.array, months, steps=2, data_policy=policy
                )
            for index, chip in enumerate(chips):
                scalar_state = chip.array.export_state()
                np.testing.assert_array_equal(
                    kernel.skew_v[index], scalar_state["skew_v"]
                )
                assert kernel.age_seconds[index] == scalar_state["age_seconds"]
        assert_streams_aligned(kernel, chips)

    def test_stress_overrides_match_scalar(self):
        kernel = vector_fleet()
        chips = scalar_fleet()
        simulator = AgingSimulator(PROFILE)
        kernel.age_months(1.0, steps=3, temperature_k=350.0, voltage_v=5.5)
        for chip in chips:
            simulator.age_array_months(
                chip.array, 1.0, steps=3, temperature_k=350.0, voltage_v=5.5
            )
        for index, chip in enumerate(chips):
            np.testing.assert_array_equal(
                kernel.skew_v[index], chip.array.export_state()["skew_v"]
            )

    def test_aging_after_measurement_stays_aligned(self):
        """The campaign's interleaving: measure, age, measure again."""
        kernel = vector_fleet()
        chips = scalar_fleet()
        simulator = AgingSimulator(PROFILE)
        for _ in range(2):
            counts, _ = kernel.measure_block(30)
            samples = [sample_measurement_block(chip, 30) for chip in chips]
            for index, sample in enumerate(samples):
                np.testing.assert_array_equal(counts[index], sample.ones_counts)
            kernel.age_months(1.0, steps=2)
            for chip in chips:
                simulator.age_array_months(chip.array, 1.0, steps=2)
        assert_streams_aligned(kernel, chips)

    def test_zero_months_is_a_no_op(self):
        kernel = vector_fleet()
        before = kernel.export_states()
        kernel.age_months(0.0)
        after = kernel.export_states()
        for board_id in kernel.board_ids:
            assert before[board_id]["rng_state"] == after[board_id]["rng_state"]
            np.testing.assert_array_equal(
                before[board_id]["skew_v"], after[board_id]["skew_v"]
            )

    def test_rejects_bad_arguments(self):
        kernel = vector_fleet()
        with pytest.raises(ConfigurationError):
            kernel.age_months(-1.0)
        with pytest.raises(ConfigurationError):
            kernel.age_months(1.0, steps=0)

    @pytest.mark.parametrize("months", [float("nan"), float("inf")])
    def test_rejects_non_finite_months_before_touching_state(self, months):
        kernel = vector_fleet()
        before = kernel.export_states()
        with pytest.raises(ConfigurationError, match="finite"):
            kernel.age_months(months)
        after = kernel.export_states()
        for board_id in kernel.board_ids:
            np.testing.assert_array_equal(
                before[board_id]["skew_v"], after[board_id]["skew_v"]
            )
            assert before[board_id]["age_seconds"] == after[board_id]["age_seconds"]


def measure_both(kernel, chips, measurements=30, **kwargs):
    """One measurement block on kernel and chips; results and states equal."""
    counts, first = kernel.measure_block(measurements, **kwargs)
    for index, chip in enumerate(chips):
        sample = sample_measurement_block(chip, measurements, **kwargs)
        np.testing.assert_array_equal(counts[index], sample.ones_counts)
        np.testing.assert_array_equal(first[index], sample.first_readout)
    assert_states_equal(kernel, chips)


def age_both(kernel, chips, months=1.0, steps=2, **kwargs):
    """Age kernel and chips alike; every exported state must stay equal."""
    kernel.age_months(months, steps=steps, **kwargs)
    simulator = AgingSimulator(kernel.profile)
    for chip in chips:
        simulator.age_array_months(chip.array, months, steps=steps, **kwargs)
    assert_states_equal(kernel, chips)


class TestProbabilityHandOff:
    """A statistical measurement's one-probabilities feed aging step 0.

    Whether the kernel reuses them (same skew, same sigma) or
    recomputes them (anything else), every sequence must stay
    bit-identical to the chips, which always recompute.
    """

    @pytest.mark.parametrize("policy", list(DataPolicy))
    def test_measure_then_age_every_policy(self, policy):
        kernel = vector_fleet()
        chips = scalar_fleet()
        for _ in range(2):
            measure_both(kernel, chips)
            age_both(kernel, chips, data_policy=policy)

    def test_measure_at_temperature_override_then_age(self):
        kernel = vector_fleet()
        chips = scalar_fleet()
        measure_both(kernel, chips, temperature_k=320.0)
        age_both(kernel, chips)
        measure_both(kernel, chips)
        age_both(kernel, chips, temperature_k=320.0)

    def test_one_measure_then_two_agings(self):
        kernel = vector_fleet()
        chips = scalar_fleet()
        measure_both(kernel, chips)
        age_both(kernel, chips)
        age_both(kernel, chips, months=0.5, steps=1)

    def test_age_without_measuring_first_on_a_fresh_kernel(self):
        kernel = vector_fleet()
        chips = scalar_fleet()
        age_both(kernel, chips)
        measure_both(kernel, chips)
        age_both(kernel, chips)

    def test_age_without_measuring_first_on_a_restored_kernel(self):
        kernel = vector_fleet()
        chips = scalar_fleet()
        measure_both(kernel, chips)
        restored = FleetKernel.from_states(
            kernel.board_ids, PROFILE, kernel.export_states()
        )
        age_both(restored, chips)
        measure_both(restored, chips)

    @pytest.mark.parametrize(
        "measurements, statistical",
        [(30, False), (1, True)],
        ids=["full-sim", "single-measurement"],
    )
    def test_uncached_measurement_then_age(self, measurements, statistical):
        kernel = vector_fleet()
        chips = scalar_fleet()
        measure_both(kernel, chips, measurements, statistical=statistical)
        age_both(kernel, chips)
        measure_both(kernel, chips)
        measure_both(kernel, chips, measurements, statistical=statistical)
        age_both(kernel, chips)

    def test_fleet_spanning_several_row_blocks(self, monkeypatch):
        monkeypatch.setattr(fleetkernel, "ROW_BLOCK_CELLS", 2 * PROFILE.cell_count)
        boards = (0, 1, 2, 3, 7)
        kernel = vector_fleet(boards)
        chips = scalar_fleet(boards)
        for steps in (2, 3):
            measure_both(kernel, chips)
            age_both(kernel, chips, steps=steps)

    @pytest.fixture
    def evaluated_cells(self, monkeypatch):
        """Cells passed to the kernel's ``Phi(skew / sigma)``, call by call."""
        cells = []
        evaluate = fleetkernel.one_probabilities_from_skew

        def counting(skew_v, sigma_v):
            cells.append(np.asarray(skew_v).size)
            return evaluate(skew_v, sigma_v)

        monkeypatch.setattr(fleetkernel, "one_probabilities_from_skew", counting)
        return cells

    def test_nominal_month_evaluates_each_skew_state_once(self, evaluated_cells):
        kernel = vector_fleet()
        kernel.measure_block(30)
        kernel.age_months(1.0, steps=2)
        assert sum(evaluated_cells) == 2 * kernel.board_count * kernel.cell_count

    def test_moved_sigma_or_skew_recomputes(self, evaluated_cells):
        kernel = vector_fleet()
        fleet_cells = kernel.board_count * kernel.cell_count
        kernel.measure_block(30, temperature_k=320.0)
        kernel.age_months(1.0, steps=2)
        assert sum(evaluated_cells) == 3 * fleet_cells
        evaluated_cells.clear()
        kernel.measure_block(30)
        kernel.age_months(1.0, steps=2)
        kernel.age_months(1.0, steps=2)
        assert sum(evaluated_cells) == 4 * fleet_cells


class TestStateRoundTrip:
    def test_export_states_equal_scalar_exports(self):
        kernel = vector_fleet()
        chips = scalar_fleet()
        kernel.read_startup()
        for chip in chips:
            chip.read_startup()
        states = kernel.export_states()
        for chip in chips:
            scalar_state = chip.array.export_state()
            state = states[chip.chip_id]
            assert state["rng_state"] == scalar_state["rng_state"]
            np.testing.assert_array_equal(state["skew_v"], scalar_state["skew_v"])
            assert state["age_seconds"] == scalar_state["age_seconds"]
            assert state["power_up_count"] == scalar_state["power_up_count"]

    def test_from_states_continues_bit_identically(self):
        kernel = vector_fleet()
        kernel.measure_block(25)
        kernel.age_months(1.0, steps=2)
        restored = FleetKernel.from_states(
            kernel.board_ids, PROFILE, kernel.export_states()
        )
        counts_a, first_a = kernel.measure_block(25)
        counts_b, first_b = restored.measure_block(25)
        np.testing.assert_array_equal(counts_a, counts_b)
        np.testing.assert_array_equal(first_a, first_b)

    def test_from_states_rejects_missing_board_and_bad_shape(self):
        kernel = vector_fleet()
        states = kernel.export_states()
        with pytest.raises(ConfigurationError):
            FleetKernel.from_states((0, 99), PROFILE, states)
        states[BOARD_IDS[0]]["skew_v"] = np.zeros(3)
        with pytest.raises(ConfigurationError):
            FleetKernel.from_states(kernel.board_ids, PROFILE, states)


class TestCompactResults:
    """Returned bits own compact ``(boards, read_bits)`` buffers.

    Callers keep these rows for a whole campaign (day-0 references,
    monthly first read-outs); a view into a ``(boards, cells)`` draw
    would pin the full-array base for that long.
    """

    def test_read_startup_owns_its_rows(self):
        bits = vector_fleet().read_startup()
        assert bits.shape == (len(BOARD_IDS), PROFILE.read_bits)
        assert bits.flags.owndata

    @pytest.mark.parametrize("statistical", [True, False], ids=["statistical", "full-sim"])
    def test_measure_block_owns_its_rows(self, statistical):
        counts, first = vector_fleet().measure_block(20, statistical=statistical)
        for matrix in (counts, first):
            assert matrix.shape == (len(BOARD_IDS), PROFILE.read_bits)
            assert matrix.flags.owndata


class TestRowBlocks:
    #: Five boards at two boards per block: blocks of 2, 2 and 1 rows.
    BOARDS = (0, 1, 2, 3, 7)

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(fleetkernel, "ROW_BLOCK_CELLS", 2 * PROFILE.cell_count)

    def test_block_boundaries_match_chips(self):
        blocks = fleetkernel.row_blocks(len(self.BOARDS), PROFILE.cell_count)
        assert [(s.start, s.stop) for s in blocks] == [(0, 2), (2, 4), (4, 5)]
        kernel = vector_fleet(self.BOARDS)
        chips = scalar_fleet(self.BOARDS)
        simulator = AgingSimulator(PROFILE)

        rows = kernel.read_startup()
        for index, chip in enumerate(chips):
            np.testing.assert_array_equal(rows[index], chip.read_startup())
        assert_states_equal(kernel, chips)

        def measure(statistical):
            counts, first = kernel.measure_block(30, statistical=statistical)
            for index, chip in enumerate(chips):
                sample = sample_measurement_block(chip, 30, statistical=statistical)
                np.testing.assert_array_equal(counts[index], sample.ones_counts)
                np.testing.assert_array_equal(first[index], sample.first_readout)
            assert_states_equal(kernel, chips)

        measure(statistical=True)
        measure(statistical=False)
        kernel.age_months(1.5, steps=3)
        for chip in chips:
            simulator.age_array_months(chip.array, 1.5, steps=3)
        assert_states_equal(kernel, chips)
        measure(statistical=True)

    def test_fleet_metrics_match_per_board_evaluation(self):
        kernel = vector_fleet(self.BOARDS)
        chips = scalar_fleet(self.BOARDS)
        reference_rows = kernel.read_startup()
        references = dict(zip(self.BOARDS, reference_rows))
        for chip in chips:
            chip.read_startup()
        rows = evaluate_fleet(kernel, reference_rows, measurements=40)
        for index, chip in enumerate(chips):
            expected = evaluate_board(chip, references[chip.chip_id], measurements=40)
            assert rows.board_ids[index] == expected.board_id
            assert rows.wchd[index] == expected.wchd
            assert rows.fhw[index] == expected.fhw
            assert rows.stable_ratio[index] == expected.stable_ratio
            assert rows.noise_entropy[index] == expected.noise_entropy
            np.testing.assert_array_equal(
                rows.first_readouts[index], expected.first_readout
            )
        assert_states_equal(kernel, chips)
