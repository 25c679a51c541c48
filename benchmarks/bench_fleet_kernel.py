"""Fleet-kernel throughput: board-months per second up a fleet ladder.

Runs one shard of the campaign engine (:func:`repro.exec.worker.run_board_shard`,
one :class:`~repro.sram.fleetkernel.FleetKernel` per shard) at fleet
sizes 16 → 10,000, checks the first boards against the single-device
oracle (:class:`~repro.sram.chip.SRAMChip` plus
:func:`~repro.analysis.monthly.evaluate_board`; speed is worthless if
the science moves), and records board-months/second in
``BENCH_fleet_kernel.json`` at the repository root.

Two workloads are measured:

* **fleet-bench profile** (128 cells/board, 100 measurements/month) —
  thousands of small boards, where batching removes the per-board
  Python overhead a board-by-board loop pays (~4x in the recorded
  history, when a board-by-board engine still existed to compare with).
* **paper profile** (20,480 cells/board, the paper's 16-board fleet) —
  the wall clock is dominated by the per-board physics draws
  themselves, which bit-identity pins to the per-board streams.

Both are recorded, neither is asserted: the regression gate is the
``fleet-kernel`` entry of the ``repro bench`` ledger.

Run it directly::

    PYTHONPATH=src python benchmarks/bench_fleet_kernel.py
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time

import numpy as np

from repro.analysis.monthly import evaluate_board
from repro.exec.plan import ShardSpec
from repro.exec.worker import run_board_shard
from repro.rng import SeedHierarchy
from repro.sram.aging import AgingSimulator
from repro.sram.chip import SRAMChip
from repro.sram.profiles import ATMEGA32U4
from repro.telemetry import reset_telemetry

#: Small boards, big fleets: where batching pays most.
BENCH_PROFILE = ATMEGA32U4.with_overrides(
    name="atmega32u4-fleetbench", sram_bytes=16, read_bytes=8
)
FLEET_LADDER = (16, 64, 256, 1024, 4096, 10000)
MONTHS = 2
MEASUREMENTS = 100
SEED = 1
REPEATS = 3
#: Boards checked against the single-device oracle.
ORACLE_BOARDS = 16
OUTPUT = os.path.join(os.path.dirname(__file__), "..", "BENCH_fleet_kernel.json")


def _spec(boards: int, profile=BENCH_PROFILE) -> ShardSpec:
    return ShardSpec(
        shard_index=0,
        root_seed=SEED,
        board_ids=tuple(range(boards)),
        months=MONTHS,
        measurements=MEASUREMENTS,
        profile=profile,
        temperatures=(None,) * (MONTHS + 1),
    )


def assert_matches_oracle(spec: ShardSpec, result) -> None:
    """The shard's trajectories equal single-device chips, board by board."""
    seeds = SeedHierarchy(spec.root_seed)
    for position, trajectory in enumerate(result.trajectories):
        profile = spec.profile_for_position(position)
        chip = SRAMChip(trajectory.board_id, profile, random_state=seeds)
        simulator = AgingSimulator(profile)
        np.testing.assert_array_equal(trajectory.reference, chip.read_startup())
        for month, row in enumerate(trajectory.months):
            expected = evaluate_board(
                chip,
                trajectory.reference,
                measurements=spec.measurements,
                temperature_k=spec.temperatures[month],
            )
            assert (row.wchd, row.fhw, row.stable_ratio, row.noise_entropy) == (
                expected.wchd,
                expected.fhw,
                expected.stable_ratio,
                expected.noise_entropy,
            )
            np.testing.assert_array_equal(row.first_readout, expected.first_readout)
            if month < spec.months:
                simulator.age_array_months(
                    chip.array,
                    spec.aging_acceleration,
                    steps=spec.aging_steps_per_month,
                )


def _timed(spec: ShardSpec):
    reset_telemetry()
    start = time.perf_counter()
    result = run_board_shard(spec)
    return time.perf_counter() - start, result


def _rate(spec: ShardSpec, repeats: int) -> float:
    wall = statistics.median(_timed(spec)[0] for _ in range(repeats))
    return len(spec.board_ids) * (MONTHS + 1) / wall


def main() -> int:
    _timed(_spec(64))  # warm-up absorbs import and cache effects
    oracle_spec = _spec(ORACLE_BOARDS)
    assert_matches_oracle(oracle_spec, _timed(oracle_spec)[1])

    rows = {
        boards: {
            "board_months_per_s": round(
                _rate(_spec(boards), REPEATS if boards <= 1024 else 1), 1
            )
        }
        for boards in FLEET_LADDER
    }
    paper_row = {
        "boards": 16,
        "cells": ATMEGA32U4.cell_count,
        "board_months_per_s": round(_rate(_spec(16, ATMEGA32U4), 1), 1),
    }
    document = {
        "bench": "fleet-kernel",
        "config": {
            "profile": BENCH_PROFILE.name,
            "cells_per_board": BENCH_PROFILE.cell_count,
            "months": MONTHS,
            "measurements": MEASUREMENTS,
            "seed": SEED,
        },
        "repeats": REPEATS,
        "cpu_count": os.cpu_count() or 1,
        "fleet_sizes": {str(b): rows[b] for b in FLEET_LADDER},
        "paper_profile": paper_row,
        "results_match_single_device_oracle": True,
    }
    with open(OUTPUT, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2)
        handle.write("\n")
    print(json.dumps(document, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
