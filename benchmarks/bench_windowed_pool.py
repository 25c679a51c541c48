"""Windowed-pool throughput and delta-checkpoint directory size.

Two effects of the streaming campaign pipeline on the checkpointed
path, measured on a 24-month 8-board study:

1. **Pool reuse** — the month-window loop dispatches once per month
   onto one persistent :class:`~repro.exec.pool.WindowPool`, whose
   sticky lanes keep every shard's boards resident in one worker.
   Measured as months/second, with bit-identity against the serial
   baseline verified on every run and exactly one lane start-up
   (``spawn_count == 1``) asserted per campaign.  A per-month pool is
   no longer a slower alternative to compare against: its fresh
   workers would hold no resident boards, and the month-1 window
   raises :class:`~repro.errors.CampaignExecutionError`.
2. **Delta checkpoints** — keyframes every ``keyframe_every`` months
   with results-only deltas between shrink the checkpoint directory;
   the ≥3× target at the default cadence is asserted always (directory
   size is deterministic).

Results go to ``BENCH_windowed_pool.json`` with ``cpu_count`` so the
committed artifact is self-describing.

Run it directly::

    PYTHONPATH=src python benchmarks/bench_windowed_pool.py
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import sys
import tempfile
import time

import numpy as np

from repro.analysis.campaign import LongTermCampaign
from repro.exec.pool import WindowPool
from repro.store.checkpoint import DEFAULT_KEYFRAME_EVERY, list_checkpoints
from repro.telemetry import reset_telemetry

WORKERS = 4
#: Checkpoint-directory shrink demanded at the default keyframe cadence.
TARGET_SHRINK = 3.0

CONFIG = dict(device_count=8, months=24, measurements=500)
SEED = 1
REPEATS = 3
OUTPUT = os.path.join(os.path.dirname(__file__), "..", "BENCH_windowed_pool.json")


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


def _campaign(workers: int = 1, keyframe_every: int = DEFAULT_KEYFRAME_EVERY):
    return LongTermCampaign(
        random_state=SEED,
        max_workers=workers,
        keyframe_every=keyframe_every,
        **CONFIG,
    )


def _timed_checkpointed_run(executor, workdir: str):
    reset_telemetry()
    checkpoint_dir = os.path.join(workdir, "ckpt")
    shutil.rmtree(checkpoint_dir, ignore_errors=True)
    start = time.perf_counter()
    result = _campaign(workers=executor.max_workers).run(
        checkpoint_dir=checkpoint_dir, executor=executor
    )
    return time.perf_counter() - start, result


def _checkpoint_dir_bytes(keyframe_every: int, workdir: str) -> int:
    reset_telemetry()
    checkpoint_dir = os.path.join(workdir, f"ckpt-k{keyframe_every}")
    _campaign(keyframe_every=keyframe_every).run(checkpoint_dir=checkpoint_dir)
    return sum(
        os.path.getsize(os.path.join(checkpoint_dir, name))
        for _, name in list_checkpoints(checkpoint_dir)
    )


def main() -> int:
    cores = os.cpu_count() or 1
    workdir = tempfile.mkdtemp(prefix="bench-windowed-pool-")
    try:
        reset_telemetry()
        baseline = _campaign().run()

        samples = []
        spawns = []
        for _ in range(REPEATS):
            with WindowPool(WORKERS) as executor:
                elapsed, result = _timed_checkpointed_run(executor, workdir)
            _assert_identical(baseline, result)
            samples.append(elapsed)
            spawns.append(executor.spawn_count)
        pooled = statistics.median(samples)

        sizes = {
            cadence: _checkpoint_dir_bytes(cadence, workdir)
            for cadence in (1, DEFAULT_KEYFRAME_EVERY)
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    shrink = sizes[1] / sizes[DEFAULT_KEYFRAME_EVERY]

    document = {
        "bench": "windowed_pool",
        "config": {
            **CONFIG,
            "seed": SEED,
            "workers": WORKERS,
            "keyframe_every": DEFAULT_KEYFRAME_EVERY,
        },
        "repeats": REPEATS,
        "cpu_count": cores,
        "median_seconds": round(pooled, 6),
        "months_per_second": round(CONFIG["months"] / pooled, 4),
        "spawn_counts": spawns,
        "checkpoint_dir_bytes": {
            "keyframe_every_1": sizes[1],
            f"keyframe_every_{DEFAULT_KEYFRAME_EVERY}": sizes[
                DEFAULT_KEYFRAME_EVERY
            ],
        },
        "checkpoint_shrink": round(shrink, 4),
        "target_shrink": TARGET_SHRINK,
        "results_bit_identical": True,
    }
    with open(OUTPUT, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2)
        handle.write("\n")
    print(json.dumps(document, indent=2))

    failed = False
    if shrink < TARGET_SHRINK:
        print(
            f"FAIL: checkpoint directory shrank only {shrink:.2f}x at "
            f"keyframe_every={DEFAULT_KEYFRAME_EVERY} < target {TARGET_SHRINK:.1f}x",
            file=sys.stderr,
        )
        failed = True
    if spawns != [1] * REPEATS:
        print(
            f"FAIL: lane start-ups per campaign were {spawns}, expected 1 each",
            file=sys.stderr,
        )
        failed = True
    if failed:
        return 1
    print(
        f"OK: {CONFIG['months'] / pooled:.2f} months/s on one pool lifetime, "
        f"bit-identity verified, checkpoint dir {shrink:.2f}x smaller"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
