"""Parallel speedup: the 16-board paper campaign sharded across workers.

Runs the paper-scale fleet (16 boards) at 1, 2 and 4 workers, verifies
every parallel run is bit-identical to the serial baseline (the whole
point of :mod:`repro.exec` — speed is worthless if the science moves),
and records wall-clock speedups in ``BENCH_parallel.json`` at the
repository root.

The acceptance target — ≥3× at 4 workers — is asserted **only when the
host actually has ≥4 CPU cores**.  On a smaller machine (CI containers
are often 1–2 cores) parallel speedup is physically impossible, so the
bench still runs, still checks bit-identity, and records the honest
numbers together with ``cpu_count`` and the lanes' ``start_method`` so
the committed artifact is self-describing.

Run it directly::

    PYTHONPATH=src python benchmarks/bench_parallel.py
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time

import numpy as np

from repro.analysis.campaign import LongTermCampaign
from repro.exec.pool import START_METHOD
from repro.telemetry import reset_telemetry

#: Speedup demanded at 4 workers — asserted only on hosts with >= 4 cores.
TARGET_SPEEDUP = 3.0
TARGET_WORKERS = 4

#: The paper fleet at a duration long enough to dominate pool start-up.
CONFIG = dict(device_count=16, months=24, measurements=1000)
SEED = 1
WORKER_LADDER = (1, 2, 4)
REPEATS = 3
OUTPUT = os.path.join(os.path.dirname(__file__), "..", "BENCH_parallel.json")


def _assert_identical(a, b) -> None:
    """Exact equality of two campaign results (the tests go deeper)."""
    assert a.board_ids == b.board_ids
    assert list(a.references) == list(b.references)
    for board in a.references:
        np.testing.assert_array_equal(a.references[board], b.references[board])
    assert len(a.snapshots) == len(b.snapshots)
    for snap_a, snap_b in zip(a.snapshots, b.snapshots):
        for name in ("wchd", "fhw", "stable_ratio", "noise_entropy", "bchd_pairs"):
            np.testing.assert_array_equal(
                getattr(snap_a, name), getattr(snap_b, name), err_msg=name
            )


def _timed_run(workers: int):
    reset_telemetry()
    campaign = LongTermCampaign(random_state=SEED, max_workers=workers, **CONFIG)
    start = time.perf_counter()
    result = campaign.run()
    return time.perf_counter() - start, result


def main() -> int:
    cores = os.cpu_count() or 1
    _timed_run(1)  # warm-up absorbs import and cache effects

    timings = {}
    baseline_result = None
    for workers in WORKER_LADDER:
        samples = []
        for _ in range(REPEATS):
            elapsed, result = _timed_run(workers)
            samples.append(elapsed)
            if workers == 1 and baseline_result is None:
                baseline_result = result
            else:
                _assert_identical(baseline_result, result)
        timings[workers] = statistics.median(samples)

    speedups = {w: timings[1] / timings[w] for w in WORKER_LADDER}
    gate_active = cores >= TARGET_WORKERS

    document = {
        "bench": "parallel",
        "config": {**CONFIG, "seed": SEED},
        "repeats": REPEATS,
        "cpu_count": cores,
        "start_method": START_METHOD,
        "median_seconds": {str(w): round(timings[w], 6) for w in WORKER_LADDER},
        "speedup_vs_serial": {str(w): round(speedups[w], 4) for w in WORKER_LADDER},
        "target_speedup_at_4_workers": TARGET_SPEEDUP,
        "target_asserted": gate_active,
        "results_bit_identical": True,
    }
    with open(OUTPUT, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2)
        handle.write("\n")
    print(json.dumps(document, indent=2))

    if gate_active and speedups[TARGET_WORKERS] < TARGET_SPEEDUP:
        print(
            f"FAIL: {speedups[TARGET_WORKERS]:.2f}x at {TARGET_WORKERS} workers "
            f"< target {TARGET_SPEEDUP:.1f}x on a {cores}-core host",
            file=sys.stderr,
        )
        return 1
    verdict = (
        f"OK: {speedups[TARGET_WORKERS]:.2f}x at {TARGET_WORKERS} workers"
        if gate_active
        else (
            f"SKIPPED speedup gate: host has {cores} core(s) < {TARGET_WORKERS}; "
            "bit-identity verified, timings recorded"
        )
    )
    print(verdict)
    return 0


if __name__ == "__main__":
    sys.exit(main())
