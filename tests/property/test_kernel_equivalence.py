"""Property-based fleet kernel ≡ single-device oracle (hypothesis).

``tests/sram/test_fleetkernel_identity.py`` pins the kernel contract at
hand-picked settings; here hypothesis draws the settings — fleet size,
geometry, noise amplitude, fidelity, measurement count, acceleration —
and asserts the same bit-identity after *every* month: power-up bits,
drifted skew states, and the exact RNG stream position of every board.
Any vectorized op that consumes randomness in a different order or
rounds differently from :class:`~repro.sram.chip.SRAMChip` fails here
on a shrunk, reproducible counterexample.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.monthly import evaluate_month
from repro.core.assessment import LongTermAssessment
from repro.core.config import StudyConfig
from repro.rng import SeedHierarchy
from repro.sram.aging import AgingSimulator
from repro.sram.chip import SRAMChip
from repro.sram.fleetkernel import FleetKernel
from repro.sram.powerup import sample_measurement_block
from repro.sram.profiles import ATMEGA32U4
from repro.telemetry import reset_telemetry

#: One randomized kernel-level scenario.
kernel_configs = st.fixed_dictionaries(
    {
        "boards": st.integers(1, 5),
        "sram_bytes": st.integers(4, 40),
        "read_fraction": st.sampled_from((0.25, 0.5, 1.0)),
        "noise_sigma_v": st.floats(0.005, 0.08),
        "months": st.integers(1, 3),
        "measurements": st.integers(2, 30),
        "statistical": st.booleans(),
        "acceleration": st.sampled_from((1.0, 6.0, 24.0)),
        "steps": st.integers(1, 3),
        "seed": st.integers(0, 2**32 - 1),
    }
)


def _oracle_campaign(cfg):
    """The campaign's month loop on single-device chips, for comparison.

    Manufacture, day-0 references, the ambient-temperature walk, one
    :func:`~repro.analysis.monthly.evaluate_month` per snapshot and
    ``StudyConfig``'s default aging (one month in two steps) between
    snapshots.
    """
    seeds = SeedHierarchy(cfg["seed"])
    chips = [
        SRAMChip(board, ATMEGA32U4, random_state=seeds)
        for board in range(cfg["device_count"])
    ]
    references = {chip.chip_id: chip.read_startup() for chip in chips}
    simulator = AgingSimulator(ATMEGA32U4)
    walk = cfg["temperature_walk_k"]
    temp_rng = seeds.stream("ambient-temperature")
    temperature = ATMEGA32U4.temperature_k
    snapshots = []
    for month in range(cfg["months"] + 1):
        if walk > 0.0:
            temperature += float(temp_rng.normal(0.0, walk))
        snapshots.append(
            evaluate_month(
                chips,
                references,
                month,
                measurements=cfg["measurements"],
                statistical=cfg["statistical"],
                temperature_k=temperature if walk > 0.0 else None,
            )
        )
        if month < cfg["months"]:
            for chip in chips:
                simulator.age_array_months(chip.array, 1.0, steps=2)
    return references, snapshots


def _profile(cfg):
    read_bytes = max(1, int(cfg["sram_bytes"] * cfg["read_fraction"]))
    return ATMEGA32U4.with_overrides(
        name="atmega32u4-proptest",
        sram_bytes=cfg["sram_bytes"],
        read_bytes=read_bytes,
        noise_sigma_v=cfg["noise_sigma_v"],
    )


class TestKernelEquivalenceProperties:
    @settings(max_examples=25, deadline=None)
    @given(kernel_configs)
    def test_month_loop_bit_identical(self, cfg):
        """Kernel and chips agree after every month of a random study."""
        profile = _profile(cfg)
        board_ids = tuple(range(cfg["boards"]))
        kernel = FleetKernel.manufacture(board_ids, profile, root_seed=cfg["seed"])
        seeds = SeedHierarchy(cfg["seed"])
        chips = [SRAMChip(b, profile, random_state=seeds) for b in board_ids]
        simulator = AgingSimulator(profile)

        references = kernel.read_startup()
        for index, chip in enumerate(chips):
            np.testing.assert_array_equal(references[index], chip.read_startup())

        for month in range(cfg["months"] + 1):
            counts, first = kernel.measure_block(
                cfg["measurements"], statistical=cfg["statistical"]
            )
            for index, chip in enumerate(chips):
                sample = sample_measurement_block(
                    chip, cfg["measurements"], statistical=cfg["statistical"]
                )
                np.testing.assert_array_equal(counts[index], sample.ones_counts)
                np.testing.assert_array_equal(first[index], sample.first_readout)
            if month < cfg["months"]:
                kernel.age_months(cfg["acceleration"], steps=cfg["steps"])
                for chip in chips:
                    simulator.age_array_months(
                        chip.array, cfg["acceleration"], steps=cfg["steps"]
                    )
            # Drift state and stream position must agree *every* month,
            # not just at the end — a transient divergence that happens
            # to cancel is still a broken kernel.
            states = kernel.export_states()
            for chip in chips:
                scalar_state = chip.array.export_state()
                state = states[chip.chip_id]
                np.testing.assert_array_equal(state["skew_v"], scalar_state["skew_v"])
                assert state["age_seconds"] == scalar_state["age_seconds"]
                assert state["rng_state"] == scalar_state["rng_state"]

    @settings(max_examples=8, deadline=None)
    @given(
        st.fixed_dictionaries(
            {
                "device_count": st.integers(2, 4),
                "months": st.integers(1, 2),
                "measurements": st.integers(5, 25),
                "statistical": st.booleans(),
                "temperature_walk_k": st.sampled_from((0.0, 1.5)),
                "seed": st.integers(0, 2**16 - 1),
            }
        )
    )
    def test_campaign_snapshots_bit_identical(self, cfg):
        """End-to-end: the campaign equals the single-device oracle loop."""
        reset_telemetry()
        campaign = LongTermAssessment(StudyConfig(**cfg)).run().campaign
        references, snapshots = _oracle_campaign(cfg)
        assert len(campaign.snapshots) == len(snapshots)
        for snap_k, snap_o in zip(campaign.snapshots, snapshots):
            assert snap_k.month == snap_o.month
            np.testing.assert_array_equal(snap_k.wchd, snap_o.wchd)
            np.testing.assert_array_equal(snap_k.fhw, snap_o.fhw)
            np.testing.assert_array_equal(snap_k.stable_ratio, snap_o.stable_ratio)
            np.testing.assert_array_equal(snap_k.noise_entropy, snap_o.noise_entropy)
            np.testing.assert_array_equal(snap_k.bchd_pairs, snap_o.bchd_pairs)
            # nan == nan must pass: a 1-board fleet has no PUF entropy.
            np.testing.assert_array_equal(snap_k.puf_entropy, snap_o.puf_entropy)
        assert list(campaign.references) == list(references)
        for board_id, reference in references.items():
            np.testing.assert_array_equal(campaign.references[board_id], reference)
