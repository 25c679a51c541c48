"""Tiny named benchmarks for the perf-regression ledger.

Each benchmark here is a *fixed, seeded workload* — small enough for
``repro bench record`` to run in seconds on a CI runner, real enough
that a regression on the campaign hot path moves its numbers:

* ``powerup-block`` — monthly measurement-block sampling
  (:func:`repro.sram.powerup.sample_measurement_block`), the physics
  inner loop of every board-month.
* ``gram-bchd`` — the Gram-matrix between-class HD over a
  fleet-sized read-out set (:func:`repro.metrics.hamming.between_class_hd`),
  the quadratic metric of the monthly evaluation.
* ``campaign-small`` — a short end-to-end serial study
  (:class:`repro.core.assessment.LongTermAssessment`), catching
  regressions that live around the kernel (dispatch, monitoring,
  store traffic).
* ``fleet-kernel`` — a mid-size fleet of small boards through an
  in-memory :class:`repro.analysis.campaign.LongTermCampaign` on the
  batched fleet kernel (:class:`repro.sram.fleetkernel.FleetKernel`),
  the throughput the ``BENCH_fleet_kernel.json`` ladder scales up.
* ``shard-store`` — a short checkpointed campaign, which persists
  through the sharded layout (:mod:`repro.store.shardstore`): worker-side
  shard streams and keyframe chains plus the parent's month records,
  catching regressions in the per-shard store write path that the
  synthetic store-layer ladder under ``benchmarks/`` scales up.

:func:`run_benchmark` runs one of them ``repeats`` times and returns
the ledger-ready metrics dict — the *median* wall time (robust to one
noisy repeat on a shared runner) plus a throughput figure whose
``*_per_s`` name the ledger's direction heuristic recognises as
higher-is-better.
"""

from __future__ import annotations

import logging
import statistics
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

from repro.errors import ConfigurationError

logger = logging.getLogger(__name__)

#: Default repeat count of :func:`run_benchmark` (median is reported).
DEFAULT_REPEATS = 3


@dataclass(frozen=True)
class Benchmark:
    """One registered workload.

    ``fn`` runs the workload once and returns ``(ops, unit)`` — the
    operation count and its name (e.g. ``(24, "months")``), from which
    the throughput metric ``<unit>_per_s`` is derived.
    """

    name: str
    description: str
    fn: Callable[[], Tuple[int, str]]


def _bench_powerup_block() -> Tuple[int, str]:
    from repro.sram.chip import SRAMChip
    from repro.sram.powerup import sample_measurement_block

    blocks = 32
    chip = SRAMChip(0, random_state=1)
    for _ in range(blocks):
        sample_measurement_block(chip, measurements=500)
    return blocks, "blocks"


def _bench_gram_bchd() -> Tuple[int, str]:
    import numpy as np

    from repro.metrics.hamming import between_class_hd

    devices, bits, rounds = 16, 8192, 8
    rng = np.random.default_rng(1)
    readouts = [rng.integers(0, 2, size=bits, dtype=np.uint8) for _ in range(devices)]
    pairs = 0
    for _ in range(rounds):
        pairs += between_class_hd(readouts).size
    return pairs, "pairs"


def _bench_campaign_small() -> Tuple[int, str]:
    from repro.core.assessment import LongTermAssessment
    from repro.core.config import StudyConfig
    from repro.telemetry import reset_telemetry

    reset_telemetry()
    config = StudyConfig(device_count=4, months=6, measurements=200, seed=1)
    result = LongTermAssessment(config).run()
    return len(result.campaign.snapshots), "months"


def _bench_fleet_kernel() -> Tuple[int, str]:
    from repro.analysis.campaign import LongTermCampaign
    from repro.sram.profiles import ATMEGA32U4
    from repro.telemetry import reset_telemetry

    reset_telemetry()
    boards, months, measurements = 256, 2, 100
    LongTermCampaign(
        device_count=boards,
        months=months,
        measurements=measurements,
        profile=ATMEGA32U4.with_overrides(
            name="atmega32u4-bench", sram_bytes=128, read_bytes=64
        ),
        random_state=1,
    ).run()
    return boards * (months + 1), "board_months"


def _bench_checkpointed_campaign() -> Tuple[int, str]:
    import os
    import shutil
    import tempfile

    from repro.analysis.campaign import LongTermCampaign
    from repro.telemetry import reset_telemetry

    reset_telemetry()
    boards, months = 8, 6
    workdir = tempfile.mkdtemp(prefix="bench-shard-store-")
    try:
        campaign = LongTermCampaign(
            device_count=boards,
            months=months,
            measurements=200,
            random_state=1,
        )
        campaign.run(checkpoint_dir=os.path.join(workdir, "ckpt"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return boards * (months + 1), "board_months"


#: The registry ``repro bench record --bench <name>`` resolves against.
BENCHMARKS: Dict[str, Benchmark] = {
    benchmark.name: benchmark
    for benchmark in (
        Benchmark(
            "powerup-block",
            "monthly measurement-block sampling on one chip (32 blocks x 500)",
            _bench_powerup_block,
        ),
        Benchmark(
            "gram-bchd",
            "Gram-matrix between-class HD, 16 devices x 8192 bits x 8 rounds",
            _bench_gram_bchd,
        ),
        Benchmark(
            "campaign-small",
            "end-to-end serial study: 4 boards, 6 months, 200 measurements",
            _bench_campaign_small,
        ),
        Benchmark(
            "fleet-kernel",
            "fleet kernel: 256 boards x 1024 cells, 2 months, "
            "100 measurements/month",
            _bench_fleet_kernel,
        ),
        Benchmark(
            "shard-store",
            "checkpointed campaign (sharded layout): 8 boards, "
            "6 months, 200 measurements/month",
            _bench_checkpointed_campaign,
        ),
    )
}


def run_benchmark(name: str, repeats: int = DEFAULT_REPEATS) -> Dict[str, float]:
    """Run one registered benchmark; return its ledger metrics.

    Returns ``{"wall_s": <median>, "cpu_s": <median>,
    "<unit>_per_s": <ops / median wall>}``.
    """
    if repeats < 1:
        raise ConfigurationError(f"repeats must be >= 1, got {repeats}")
    try:
        benchmark = BENCHMARKS[name]
    except KeyError:
        known = ", ".join(sorted(BENCHMARKS))
        raise ConfigurationError(
            f"unknown benchmark {name!r}; available: {known}"
        ) from None
    walls: List[float] = []
    cpus: List[float] = []
    ops, unit = 0, "ops"
    for repeat in range(repeats):
        wall0, cpu0 = time.perf_counter(), time.process_time()
        ops, unit = benchmark.fn()
        walls.append(time.perf_counter() - wall0)
        cpus.append(time.process_time() - cpu0)
        logger.debug(
            "bench %s repeat %d/%d: %.4fs wall", name, repeat + 1, repeats, walls[-1]
        )
    wall = statistics.median(walls)
    cpu = statistics.median(cpus)
    metrics = {
        "wall_s": round(wall, 6),
        "cpu_s": round(cpu, 6),
        f"{unit}_per_s": round(ops / wall, 3) if wall > 0 else 0.0,
    }
    logger.info("bench %s: %s", name, metrics)
    return metrics
