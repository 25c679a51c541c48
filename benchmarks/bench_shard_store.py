"""Parent-side persistence cost per month: sharded vs monolithic store.

The monolithic checkpointer serialises the *whole fleet's* device
state in the parent process on every keyframe month; the sharded
store (``repro.store.shardstore``) moves that work into the window
workers — each persists only its own shard's boards — and leaves the
parent an O(counters) month record.  This ladder isolates exactly
that write path at fleet sizes the simulation itself could never
reach in a benchmark, by synthesising the per-board state and metric
documents and timing the store calls alone:

* ``parent_monolithic_ms_per_month`` — the classic
  :class:`~repro.store.checkpoint.CampaignCheckpointer` writing the
  keyframe/delta chain for the full fleet (keyframes at the default
  cadence endpoints, deltas between).
* ``parent_sharded_ms_per_month`` — the sharded parent's
  ``append_parent_month_record`` call (fleet-size independent).
* ``worker_critical_ms_per_month`` — the *slowest* shard's
  :func:`~repro.store.shardstore.persist_shard_window` per month: the
  persistence term on the parallel critical path.

Snapshot payloads (the cross-board ``bchd_pairs`` vector) are left
empty on both sides: they are O(boards^2), identical in both modes'
in-memory life, and would drown the board-state term this bench
exists to compare.  The committed ``BENCH_shard_store.json`` records
the honest numbers; the gates assert the architectural claim — the
sharded parent's per-month cost must not scale with the fleet, and
the critical path (parent + slowest worker) must beat the monolithic
parent once keyframes dominate (>= 1024 boards).

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
from typing import Dict, List

import numpy as np

from repro.analysis.monthly import BoardMonthMetrics, MonthlyEvaluation
from repro.store.checkpoint import DEFAULT_KEYFRAME_EVERY, CampaignCheckpointer
from repro.store.codecs import encode_float64_array
from repro.store.shardstore import (
    ShardStoreSpec,
    append_parent_month_record,
    build_parent_month_record,
    shard_root,
)
from repro.store.shardstore import persist_shard_window

#: Synthetic device size: enough skew floats for a realistic document,
#: small enough that a 10k-board keyframe stays a benchmark, not a job.
CELLS = 64
READ_BITS = 64
SHARDS = 8
#: Months 0..MONTHS: keyframes at 0 and DEFAULT_KEYFRAME_EVERY, deltas between.
MONTHS = DEFAULT_KEYFRAME_EVERY
FLEETS = (16, 64, 256, 1024, 4096, 10000)
REPEATS = 3
#: Demanded at fleets >= GATE_FLEET: the sharded parent's month record
#: must be this much cheaper than the monolithic parent's chain write.
TARGET_PARENT_SPEEDUP = 10.0
#: And the parallel critical path (parent + slowest worker) must win too.
TARGET_CRITICAL_SPEEDUP = 2.0
GATE_FLEET = 1024

OUTPUT = os.path.join(os.path.dirname(__file__), "..", "BENCH_shard_store.json")


def _fleet_fixture(boards: int, rng: np.random.Generator):
    """Synthetic per-board state docs, metric rows and references."""
    states: Dict[int, dict] = {}
    rows: Dict[int, BoardMonthMetrics] = {}
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
        rows[board] = BoardMonthMetrics(
            board_id=board,
            wchd=float(rng.random()) * 0.05,
            fhw=float(rng.random()),
            stable_ratio=float(rng.random()),
            noise_entropy=float(rng.random()),
            first_readout=rng.integers(0, 2, size=READ_BITS, dtype=np.uint8),
        )
        references[board] = rng.integers(0, 2, size=READ_BITS, dtype=np.uint8)
    return states, rows, references


def _snapshot(month: int, boards: int, rows) -> MonthlyEvaluation:
    board_ids = sorted(rows)
    return MonthlyEvaluation(
        month=month,
        measurements=1000,
        board_ids=board_ids,
        wchd=np.asarray([rows[b].wchd for b in board_ids]),
        fhw=np.asarray([rows[b].fhw for b in board_ids]),
        stable_ratio=np.asarray([rows[b].stable_ratio for b in board_ids]),
        noise_entropy=np.asarray([rows[b].noise_entropy for b in board_ids]),
        bchd_pairs=np.empty(0, dtype=float),  # O(boards^2); see module doc
        puf_entropy=0.75,
    )


def _run_monolithic(workdir: str, boards, states, rows, references) -> float:
    """Total parent wall seconds for months 0..MONTHS, monolithic chain."""
    checkpoint_dir = os.path.join(workdir, "mono")
    shutil.rmtree(checkpoint_dir, ignore_errors=True)
    checkpointer = CampaignCheckpointer(
        checkpoint_dir,
        {"months": MONTHS, "keyframe_every": DEFAULT_KEYFRAME_EVERY},
    )
    snapshots: List[MonthlyEvaluation] = []
    counter_deltas: List[Dict[str, int]] = []
    total = 0.0
    for month in range(MONTHS + 1):
        snapshots.append(_snapshot(month, boards, rows))
        counter_deltas.append({"campaign.months": 1})
        start = time.perf_counter()
        checkpointer.save(
            month, 298.15, None, references, states, snapshots,
            counter_deltas, {},
        )
        total += time.perf_counter() - start
    return total


def _run_sharded(workdir: str, boards, states, rows, references):
    """(parent_s, worker_critical_s) totals for months 0..MONTHS, sharded."""
    checkpoint_dir = os.path.join(workdir, "sharded")
    shutil.rmtree(checkpoint_dir, ignore_errors=True)
    os.makedirs(checkpoint_dir)
    board_ids = sorted(states)
    shard_boards = [list(board_ids[i::SHARDS]) for i in range(SHARDS)]
    specs = [
        ShardStoreSpec(
            root=shard_root(checkpoint_dir, index),
            shard_index=index,
            keyframe_every=DEFAULT_KEYFRAME_EVERY,
            months=MONTHS,
        )
        for index in range(SHARDS)
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
                {b: rows[b] for b in members},
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
            mono_samples, parent_samples, worker_samples = [], [], []
            for _ in range(REPEATS):
                mono_samples.append(
                    _run_monolithic(workdir, boards, states, rows, references)
                )
                parent_s, worker_s = _run_sharded(
                    workdir, boards, states, rows, references
                )
                parent_samples.append(parent_s)
                worker_samples.append(worker_s)
            months = MONTHS + 1
            mono = statistics.median(mono_samples) / months
            parent = statistics.median(parent_samples) / months
            worker = statistics.median(worker_samples) / months
            ladder[str(boards)] = {
                "parent_monolithic_ms_per_month": round(1e3 * mono, 4),
                "parent_sharded_ms_per_month": round(1e3 * parent, 4),
                "worker_critical_ms_per_month": round(1e3 * worker, 4),
                "parent_speedup": round(mono / parent, 2) if parent else None,
                "critical_path_speedup": (
                    round(mono / (parent + worker), 2) if parent + worker else None
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
            "time of the parent's monolithic keyframe/delta chain vs the "
            "sharded layout's parent month record plus the slowest shard's "
            "persist_shard_window. bchd_pairs snapshot payloads are empty "
            "on both sides (O(boards^2), mode-independent). The sharded "
            "parent's cost is O(counters), so parent_speedup grows "
            "linearly with the fleet; worker persists run in parallel in "
            "real campaigns, so parent + slowest shard is the critical "
            "path."
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
