"""Persistence cost per month of the checkpoint layout, by shard count.

Every checkpointed campaign persists through the sharded layout
(``repro.store.shardstore``): each window worker writes its own
shard's boards and the parent appends an O(counters) month record.  A
serial run is the one-shard case, where a single writer serialises the
*whole fleet's* device state on every keyframe month.  This ladder
isolates exactly that write path at fleet sizes the simulation itself
could never reach in a benchmark, by synthesising the per-board state
and metric documents and timing the store calls alone:

* ``one_shard_ms_per_month`` — :func:`~repro.store.shardstore.persist_shard_window`
  of the full fleet as one shard (keyframes at the default cadence
  endpoints, deltas between): the serial run's write path.
* ``parent_ms_per_month`` — the parent's ``append_parent_month_record``
  call (fleet-size independent).
* ``worker_critical_ms_per_month`` — the *slowest* of ``SHARDS``
  shards' ``persist_shard_window`` per month: the persistence term on
  the parallel critical path.

The committed ``BENCH_shard_store.json`` records the honest numbers;
the gates assert the architectural claim — the parent's per-month
cost must not scale with the fleet, and the sharded critical path
(parent + slowest worker) must beat the single writer once keyframes
dominate (>= 1024 boards).

Run it directly::

    PYTHONPATH=src python benchmarks/bench_shard_store.py
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import sys
import tempfile
import time
from typing import Dict

import numpy as np

from repro.analysis.monthly import FleetMonthMetrics
from repro.store.checkpoint import DEFAULT_KEYFRAME_EVERY
from repro.store.codecs import encode_float64_array
from repro.store.shardstore import (
    ShardStoreSpec,
    append_parent_month_record,
    build_parent_month_record,
    persist_shard_window,
    shard_root,
)

#: Synthetic device size: enough skew floats for a realistic document,
#: small enough that a 10k-board keyframe stays a benchmark, not a job.
CELLS = 64
READ_BITS = 64
SHARDS = 8
#: Months 0..MONTHS: keyframes at 0 and DEFAULT_KEYFRAME_EVERY, deltas between.
MONTHS = DEFAULT_KEYFRAME_EVERY
FLEETS = (16, 64, 256, 1024, 4096, 10000)
REPEATS = 3
#: Demanded at fleets >= GATE_FLEET: the parent's month record must be
#: this much cheaper than the single writer's full-fleet chain write.
TARGET_PARENT_SPEEDUP = 10.0
#: And the parallel critical path (parent + slowest worker) must win too.
TARGET_CRITICAL_SPEEDUP = 2.0
GATE_FLEET = 1024

OUTPUT = os.path.join(os.path.dirname(__file__), "..", "BENCH_shard_store.json")


def _fleet_fixture(boards: int, rng: np.random.Generator):
    """Synthetic per-board state docs, the month's metric record and references."""
    states: Dict[int, dict] = {}
    references: Dict[int, np.ndarray] = {}
    for board in range(boards):
        states[board] = {
            "rng_state": {
                "bit_generator": "PCG64",
                "state": {
                    "state": int(rng.integers(1 << 62)),
                    "inc": int(rng.integers(1 << 62)),
                },
                "has_uint32": 0,
                "uinteger": 0,
            },
            "skew_b64": encode_float64_array(rng.standard_normal(CELLS)),
            "age_seconds": float(board),
            "power_up_count": 1000 + board,
        }
        references[board] = rng.integers(0, 2, size=READ_BITS, dtype=np.uint8)
    rows = FleetMonthMetrics(
        board_ids=tuple(range(boards)),
        wchd=rng.random(boards) * 0.05,
        fhw=rng.random(boards),
        stable_ratio=rng.random(boards),
        noise_entropy=rng.random(boards),
        first_readouts=rng.integers(0, 2, size=(boards, READ_BITS), dtype=np.uint8),
    )
    return states, rows, references


def _time_writes(workdir: str, shards: int, states, rows, references):
    """(parent_s, slowest_shard_s) totals for months 0..MONTHS."""
    checkpoint_dir = os.path.join(workdir, f"shards-{shards}")
    shutil.rmtree(checkpoint_dir, ignore_errors=True)
    os.makedirs(checkpoint_dir)
    board_ids = sorted(states)
    shard_boards = [list(board_ids[i::shards]) for i in range(shards)]
    specs = [
        ShardStoreSpec(
            root=shard_root(checkpoint_dir, index),
            shard_index=index,
            keyframe_every=DEFAULT_KEYFRAME_EVERY,
            months=MONTHS,
        )
        for index in range(shards)
    ]
    parent_total = 0.0
    worker_total = 0.0
    for month in range(MONTHS + 1):
        slowest = 0.0
        for index, spec in enumerate(specs):
            members = shard_boards[index]
            start = time.perf_counter()
            persist_shard_window(
                spec,
                month,
                rows.take(members),
                {b: states[b] for b in members},
                {b: references[b] for b in members},
            )
            slowest = max(slowest, time.perf_counter() - start)
        worker_total += slowest
        start = time.perf_counter()
        append_parent_month_record(
            checkpoint_dir,
            build_parent_month_record(month, 298.15, None,
                                      {"campaign.months": 1}, {}),
        )
        parent_total += time.perf_counter() - start
    return parent_total, worker_total


def main() -> int:
    workdir = tempfile.mkdtemp(prefix="bench-shard-store-")
    ladder = {}
    try:
        for boards in FLEETS:
            rng = np.random.default_rng(1)
            states, rows, references = _fleet_fixture(boards, rng)
            single_samples, parent_samples, worker_samples = [], [], []
            for _ in range(REPEATS):
                parent_s, shard_s = _time_writes(workdir, 1, states, rows, references)
                single_samples.append(parent_s + shard_s)
                parent_s, worker_s = _time_writes(
                    workdir, SHARDS, states, rows, references
                )
                parent_samples.append(parent_s)
                worker_samples.append(worker_s)
            months = MONTHS + 1
            single = statistics.median(single_samples) / months
            parent = statistics.median(parent_samples) / months
            worker = statistics.median(worker_samples) / months
            ladder[str(boards)] = {
                "one_shard_ms_per_month": round(1e3 * single, 4),
                "parent_ms_per_month": round(1e3 * parent, 4),
                "worker_critical_ms_per_month": round(1e3 * worker, 4),
                "parent_speedup": round(single / parent, 2) if parent else None,
                "critical_path_speedup": (
                    round(single / (parent + worker), 2) if parent + worker else None
                ),
            }
            print(f"fleet {boards}: {json.dumps(ladder[str(boards)])}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    gated = {
        int(boards): entry
        for boards, entry in ladder.items()
        if int(boards) >= GATE_FLEET
    }
    worst_parent = min(entry["parent_speedup"] for entry in gated.values())
    worst_critical = min(entry["critical_path_speedup"] for entry in gated.values())

    document = {
        "bench": "shard_store",
        "config": {
            "cells": CELLS,
            "read_bits": READ_BITS,
            "shards": SHARDS,
            "months": MONTHS,
            "keyframe_every": DEFAULT_KEYFRAME_EVERY,
        },
        "repeats": REPEATS,
        "ladder": ladder,
        "worst_parent_speedup_at_or_above_1024": worst_parent,
        "worst_critical_path_speedup_at_or_above_1024": worst_critical,
        "target_parent_speedup": TARGET_PARENT_SPEEDUP,
        "target_critical_path_speedup": TARGET_CRITICAL_SPEEDUP,
        "notes": (
            "Synthetic store-layer ladder (no simulation): per-month wall "
            "time of the one-shard layout (a serial run: the whole fleet's "
            "keyframe/delta chain plus the parent record) vs the parent "
            "month record and the slowest of the sharded layout's "
            "persist_shard_window calls. The parent's cost is O(counters), "
            "so parent_speedup grows linearly with the fleet; worker "
            "persists run in parallel in real campaigns, so parent + "
            "slowest shard is the critical path."
        ),
    }
    with open(OUTPUT, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2)
        handle.write("\n")
    print(json.dumps({k: v for k, v in document.items() if k != "ladder"}, indent=2))

    if worst_parent < TARGET_PARENT_SPEEDUP:
        print(
            f"FAIL: parent-side speedup {worst_parent:.1f}x at >= {GATE_FLEET} "
            f"boards < target {TARGET_PARENT_SPEEDUP:.1f}x",
            file=sys.stderr,
        )
        return 1
    if worst_critical < TARGET_CRITICAL_SPEEDUP:
        print(
            f"FAIL: critical-path speedup {worst_critical:.1f}x at >= "
            f"{GATE_FLEET} boards < target {TARGET_CRITICAL_SPEEDUP:.1f}x",
            file=sys.stderr,
        )
        return 1
    print(
        f"OK: parent {worst_parent:.1f}x, critical path {worst_critical:.1f}x "
        f"at >= {GATE_FLEET} boards ({SHARDS} shards)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
