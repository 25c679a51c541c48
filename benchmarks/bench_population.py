"""Mixed-fleet throughput: cohort batching vs a homogeneous fleet.

Runs the campaign in memory at fleet sizes 16 → 4,096 with a
*heterogeneous* population (three bench profiles, multiple process
lots, mixed cell counts) and compares board-months/second against the
homogeneous fleet of ``bench_fleet_kernel.py``'s regime.  Checks the
mixed fleet against the single-device oracle first — the cohort kernel
is worthless if it moves the science.

The honest caveat this bench exists to record: a mixed fleet
*fragments* the kernel's batches.  ``CohortFleetKernel`` advances one
``(boards x cells)`` matrix per distinct materialized profile, so a
spec with k lots pays k small batched steps instead of one big one;
with per-lot cell counts the cohorts cannot even share a matrix width.
The ``mixed_over_homogeneous`` ratios quantify that cost (1.0 = free
heterogeneity).

Run it directly::

    PYTHONPATH=src python benchmarks/bench_population.py
"""

from __future__ import annotations

import json
import os
import sys

from bench_fleet_kernel import (
    FLEET_LADDER,
    MEASUREMENTS,
    MONTHS,
    ORACLE_BOARDS,
    SEED,
    _campaign,
    _rate,
    _timed,
    assert_matches_oracle,
)

from repro.sram.population import PopulationMember, PopulationSpec
from repro.sram.profiles import ATMEGA32U4, register_profile

#: Small boards, big fleets — the cohort kernel's home regime (matches
#: ``bench_fleet_kernel.py`` so the homogeneous rows are comparable).
HOMOGENEOUS_PROFILE = register_profile(
    ATMEGA32U4.with_overrides(
        name="atmega32u4-fleetbench", sram_bytes=16, read_bytes=8
    )
)
#: A second device type: noisier, different cell count menu.
ALT_PROFILE = register_profile(
    ATMEGA32U4.with_overrides(
        name="altsram-fleetbench",
        sram_bytes=32,
        read_bytes=8,
        skew_mean_v=0.0,
        noise_sigma_v=ATMEGA32U4.noise_sigma_v * 1.5,
    )
)

#: Three members, six possible lots, two cell counts: a deliberately
#: fragmented mixture (up to 6 cohorts where the homogeneous fleet
#: batches everything into 1).
MIXED = PopulationSpec(
    name="bench-mix",
    members=(
        PopulationMember(
            HOMOGENEOUS_PROFILE.name,
            weight=2.0,
            lots=2,
            skew_mean_spread_v=0.002,
            skew_sigma_spread=0.05,
        ),
        PopulationMember(ALT_PROFILE.name, noise_sigma_spread=0.1),
        PopulationMember(
            ALT_PROFILE.name, lots=3, sram_bytes_choices=(16, 32)
        ),
    ),
)

REPEATS = 3
OUTPUT = os.path.join(os.path.dirname(__file__), "..", "BENCH_population.json")


def _mixed(boards: int):
    return _campaign(boards, population=MIXED)


def _homogeneous(boards: int):
    return _campaign(boards, HOMOGENEOUS_PROFILE)


def main() -> int:
    _timed(_mixed(64))  # warm-up absorbs import effects
    oracle = _mixed(ORACLE_BOARDS)
    assert_matches_oracle(oracle, _timed(oracle)[1])

    rows = {}
    for boards in FLEET_LADDER:
        repeats = REPEATS if boards <= 1024 else 1
        homogeneous = _rate(boards, _homogeneous, repeats)
        mixed = _rate(boards, _mixed, repeats)
        table, _ = MIXED.materialize(SEED, range(boards))
        rows[boards] = {
            "homogeneous_board_months_per_s": round(homogeneous, 1),
            "mixed_board_months_per_s": round(mixed, 1),
            "mixed_over_homogeneous": round(mixed / homogeneous, 4),
            "distinct_profiles": len(table),
        }

    large = [b for b in FLEET_LADDER if b >= 1024]
    worst_ratio = min(rows[b]["mixed_over_homogeneous"] for b in large)
    document = {
        "bench": "population",
        "config": {
            "population": MIXED.to_doc(),
            "months": MONTHS,
            "measurements": MEASUREMENTS,
            "seed": SEED,
        },
        "repeats": REPEATS,
        "cpu_count": os.cpu_count() or 1,
        "fleet_sizes": {str(b): rows[b] for b in FLEET_LADDER},
        "worst_mixed_over_homogeneous_at_or_above_1024": round(worst_ratio, 4),
        "results_match_single_device_oracle": True,
        "notes": (
            "mixed_over_homogeneous < 1 is the cohort-fragmentation cost: "
            "the kernel advances one (boards x cells) matrix per distinct "
            "materialized profile, so k cohorts mean k smaller batched "
            "steps (and mixed cell counts forbid sharing a matrix width). "
            "Ratios are medians; single repeat above 1024 boards."
        ),
    }
    with open(OUTPUT, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2)
        handle.write("\n")
    print(json.dumps(document, indent=2))
    print(
        f"OK: worst mixed/homogeneous ratio at fleet >= 1024 is "
        f"{worst_ratio:.2f} (results match the single-device oracle)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
