"""Fleet-kernel throughput: board-months per second up a fleet ladder.

Runs the campaign in memory (:class:`~repro.analysis.campaign.LongTermCampaign`,
one :class:`~repro.sram.fleetkernel.FleetKernel` per shard, every
month window in this process) at fleet sizes 16 → 4,096, checks a
16-board campaign against the single-device oracle
(:class:`~repro.sram.chip.SRAMChip` plus
:func:`~repro.analysis.monthly.evaluate_board`; speed is worthless if
the science moves), and records board-months/second in
``BENCH_fleet_kernel.json`` at the repository root.  The rate covers
the whole month loop — kernel draws, monthly metrics (the O(boards²)
BCHD included), snapshot assembly and telemetry — which is why the
ladder stops at 4,096 boards: the BCHD Gram matrix of 10,000 boards
alone is 800 MB.

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

from repro.analysis.campaign import LongTermCampaign
from repro.analysis.monthly import FleetMonthMetrics, assemble_evaluation, evaluate_board
from repro.sram.aging import AgingSimulator
from repro.sram.profiles import ATMEGA32U4
from repro.telemetry import reset_telemetry

#: Small boards, big fleets: where batching pays most.
BENCH_PROFILE = ATMEGA32U4.with_overrides(
    name="atmega32u4-fleetbench", sram_bytes=16, read_bytes=8
)
FLEET_LADDER = (16, 64, 256, 1024, 4096)
MONTHS = 2
MEASUREMENTS = 100
SEED = 1
REPEATS = 3
#: Fleet size of the single-device oracle check.
ORACLE_BOARDS = 16
OUTPUT = os.path.join(os.path.dirname(__file__), "..", "BENCH_fleet_kernel.json")


def _campaign(boards: int, profile=BENCH_PROFILE, population=None) -> LongTermCampaign:
    return LongTermCampaign(
        device_count=boards,
        months=MONTHS,
        measurements=MEASUREMENTS,
        profile=profile,
        population=population,
        random_state=SEED,
    )


def assert_matches_oracle(campaign: LongTermCampaign, result) -> None:
    """The campaign's references and snapshots equal single-device chips'."""
    chips = campaign.build_fleet()
    references = [chip.read_startup() for chip in chips]
    for chip, reference in zip(chips, references):
        np.testing.assert_array_equal(result.references[chip.chip_id], reference)
    for month, snapshot in enumerate(result.snapshots):
        boards = [
            evaluate_board(chip, reference, measurements=MEASUREMENTS)
            for chip, reference in zip(chips, references)
        ]
        expected = assemble_evaluation(
            month, MEASUREMENTS, [FleetMonthMetrics.from_boards(boards)]
        )
        for name in ("wchd", "fhw", "stable_ratio", "noise_entropy", "bchd_pairs"):
            np.testing.assert_array_equal(
                getattr(snapshot, name), getattr(expected, name), err_msg=name
            )
        assert snapshot.puf_entropy == expected.puf_entropy
        if month < MONTHS:
            for chip in chips:
                AgingSimulator(chip.profile).age_array_months(chip.array, 1.0, steps=2)


def _timed(campaign: LongTermCampaign):
    reset_telemetry()
    start = time.perf_counter()
    result = campaign.run()
    return time.perf_counter() - start, result


def _rate(boards: int, build, repeats: int) -> float:
    wall = statistics.median(_timed(build(boards))[0] for _ in range(repeats))
    return boards * (MONTHS + 1) / wall


def main() -> int:
    _timed(_campaign(64))  # warm-up absorbs import and cache effects
    oracle = _campaign(ORACLE_BOARDS)
    assert_matches_oracle(oracle, _timed(oracle)[1])

    rows = {
        boards: {
            "board_months_per_s": round(
                _rate(boards, _campaign, REPEATS if boards <= 1024 else 1), 1
            )
        }
        for boards in FLEET_LADDER
    }
    paper_row = {
        "boards": 16,
        "cells": ATMEGA32U4.cell_count,
        "board_months_per_s": round(
            _rate(16, lambda boards: _campaign(boards, ATMEGA32U4), 1), 1
        ),
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
