"""The board-shard worker: one shard's trajectories, start to finish.

:func:`run_board_shard` is the function the executors dispatch — a
module-level callable (picklable under the ``spawn`` start method)
that takes a :class:`~repro.exec.plan.ShardSpec` and advances every
assigned board together on one
:class:`~repro.sram.fleetkernel.FleetKernel`: the day-0 reference
read-out, then each month's measurement block followed by one month of
aging.  Per board, the order and count of random draws is exactly the
serial campaign's, and each board touches only its own
``chip-<id>`` stream, so the returned numbers are bit-identical to the
serial run's.

Workers do not touch the process-global telemetry registry (they may
share a process with the campaign driver under
:class:`~repro.exec.executor.SerialExecutor`).  Instead every shard
counts its own work on a private registry and returns *per-month
counter deltas*; the driver folds them into the parent registry in
snapshot order, so monthly counter rates — and therefore
``rate:``-rule alert sequences — match the serial run poll for poll.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.analysis.monthly import BoardMonthMetrics, evaluate_fleet
from repro.errors import CampaignExecutionError
from repro.exec.plan import ShardSpec, rollup_shard_of
from repro.sram.fleetkernel import build_fleet_kernel
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.profiling import PHASE_AGING, PhaseProfiler
from repro.telemetry.resources import ResourceSampler
from repro.telemetry.rollup import ROLLUP_STATS, ShardRollupBuilder
from repro.telemetry.runtime import get_profiler, install_profiler
from repro.telemetry.tracing import NULL_SPAN, Tracer, span_record

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class BoardTrajectory:
    """One board's complete campaign output.

    ``months[m]`` is the board's share of the month-``m`` snapshot;
    ``reference`` is its day-0 read-out (the lifetime WCHD baseline).
    """

    board_id: int
    reference: np.ndarray = field(repr=False)
    months: List[BoardMonthMetrics] = field(repr=False)


@dataclass(frozen=True)
class ShardResult:
    """Everything one worker sends back to the campaign driver."""

    shard_index: int
    board_ids: Tuple[int, ...]
    trajectories: List[BoardTrajectory] = field(repr=False)
    #: ``counter_deltas[m]`` holds how much each telemetry counter
    #: advanced between the month ``m - 1`` and month ``m`` snapshot
    #: polls (month 0 includes the day-0 reference read-outs).
    counter_deltas: List[Dict[str, int]] = field(repr=False)
    #: ``rollup_docs[m]`` is this shard's partial rollup documents for
    #: month ``m`` (empty when ``ShardSpec.rollup_shards`` is 0) —
    #: exact summaries the parent merges associatively.
    rollup_docs: List[Dict[str, dict]] = field(default_factory=list, repr=False)
    #: Worker resource sample for the whole shard (wall/CPU seconds,
    #: peak RSS in KiB); diagnostic only, never merged into results.
    resources: Dict[str, float] = field(default_factory=dict, repr=False)
    #: Pickle-safe per-board span records (:func:`span_record`), one
    #: root per simulated board in board order; empty unless
    #: ``ShardSpec.trace.spans`` was set.  The driver grafts them under
    #: its dispatching span sorted by board id, so the merged tree is
    #: independent of worker count.
    spans: List[Dict[str, object]] = field(default_factory=list, repr=False)
    #: Hot-path phase timer totals accumulated worker-side (a
    #: :meth:`~repro.telemetry.profiling.PhaseProfiler.take` delta
    #: map); empty unless ``ShardSpec.trace.phases`` was set.
    phase_deltas: Dict[str, Dict[str, float]] = field(default_factory=dict, repr=False)


class _DeltaTracker:
    """Per-month counter deltas over a private metrics registry."""

    def __init__(self, months: int):
        self.registry = MetricsRegistry()
        self._months = months
        self._baseline: Dict[str, int] = {}
        self.deltas: List[Dict[str, int]] = [{} for _ in range(months + 1)]

    def checkpoint(self, month: int) -> None:
        """Attribute everything counted since the last checkpoint to ``month``."""
        for name, doc in self.registry.snapshot().items():
            if doc["type"] != "counter":
                continue
            value = int(doc["value"])
            delta = value - self._baseline.get(name, 0)
            self._baseline[name] = value
            if delta:
                bucket = self.deltas[month]
                bucket[name] = bucket.get(name, 0) + delta


def board_span_records(
    tracer: Optional[Tracer], board_ids: Tuple[int, ...]
) -> List[Dict[str, object]]:
    """Per-board span records of a fleet worker's trace.

    The kernel advances a worker's boards together, so the worker
    traces one ``worker.board`` tree for its whole fleet and ships one
    copy per board, tagged with the board id.  Every copy keeps the
    shared wall-clock interval (the boards really ran at once) and an
    equal share of the CPU time, so the merged tree — names, structure
    and ids — is the same at every worker count.
    """
    if tracer is None or not tracer.roots:
        return []
    root = tracer.roots[0]
    share = 1.0 / len(board_ids)

    def scaled(record: Dict[str, object]) -> Dict[str, object]:
        return dict(
            record,
            cpu_s=record["cpu_s"] * share,
            children=[scaled(child) for child in record["children"]],
        )

    template = scaled(span_record(root, root.start_wall))
    return [
        dict(template, attributes={**root.attributes, "board": board})
        for board in board_ids
    ]


def _run_fleet(
    spec: ShardSpec,
    tracker: _DeltaTracker,
    builders: Optional[List[ShardRollupBuilder]] = None,
    tracer: Optional[Tracer] = None,
) -> List[BoardTrajectory]:
    """Simulate the shard's boards together on one fleet kernel.

    Month-major schedule: the whole fleet advances one month at a
    time.  Boards never share random streams, so this reorders no
    draws *within* any stream — every board's sequence is manufacture
    → reference → monthly blocks → aging, as in the serial campaign.
    """
    powerups = tracker.registry.counter("campaign.powerups")
    aging_steps = tracker.registry.counter("campaign.aging_steps")
    boards = len(spec.board_ids)
    with tracer.span("worker.board") if tracer is not None else NULL_SPAN:
        kernel = build_fleet_kernel(
            spec.board_ids, spec.board_profiles, root_seed=spec.root_seed
        )
        references = dict(zip(kernel.board_ids, kernel.read_startup()))
        powerups.inc(boards)  # the day-0 reference read-outs
        month_rows: List[Dict[int, BoardMonthMetrics]] = []
        for month in range(spec.months + 1):
            with tracer.span("board.month", month=month) if tracer is not None else NULL_SPAN:
                with tracer.span("board.measure") if tracer is not None else NULL_SPAN:
                    rows = evaluate_fleet(
                        kernel,
                        references,
                        measurements=spec.measurements,
                        statistical=spec.statistical,
                        temperature_k=spec.temperatures[month],
                    )
                month_rows.append({row.board_id: row for row in rows})
                if builders is not None:
                    for row in rows:
                        builders[month].observe_board(
                            row.board_id,
                            {stat: getattr(row, stat) for stat in ROLLUP_STATS},
                        )
                powerups.inc(spec.measurements * boards)
                tracker.checkpoint(month)
                if month < spec.months:
                    with tracer.span("board.age") if tracer is not None else NULL_SPAN:
                        with get_profiler().phase(PHASE_AGING, calls=boards):
                            kernel.age_months(
                                spec.aging_acceleration,
                                steps=spec.aging_steps_per_month,
                            )
                    aging_steps.inc(spec.aging_steps_per_month * boards)
    return [
        BoardTrajectory(
            board_id=board_id,
            reference=references[board_id],
            months=[rows[board_id] for rows in month_rows],
        )
        for board_id in spec.board_ids
    ]


def run_board_shard(spec: ShardSpec) -> ShardResult:
    """Execute one shard: every assigned board, end to end.

    Any failure while the fleet runs — including the
    :attr:`~repro.exec.plan.ShardSpec.fail_board` fault-injection
    hook, which fires before any board is simulated — surfaces as a
    :class:`~repro.errors.CampaignExecutionError` naming the shard
    (and the board, for the hook), so the campaign can refuse to merge.
    """
    sampler = ResourceSampler()
    tracker = _DeltaTracker(spec.months)
    builders: Optional[List[ShardRollupBuilder]] = None
    if spec.rollup_shards > 0:
        builders = [
            ShardRollupBuilder(
                lambda b: rollup_shard_of(b, spec.fleet_size, spec.rollup_shards)
            )
            for _ in range(spec.months + 1)
        ]
    trace = spec.trace
    tracer: Optional[Tracer] = None
    if trace is not None and trace.spans:
        tracer = Tracer(enabled=True)
    # Swap in a local profiler so every get_profiler() call site in the
    # hot path attributes here; restored (and drained) in the finally.
    previous_profiler: Optional[PhaseProfiler] = None
    phase_deltas: Dict[str, Dict[str, float]] = {}
    if trace is not None and trace.phases:
        previous_profiler = install_profiler(PhaseProfiler(enabled=True))
    try:
        if spec.fail_board is not None:
            raise CampaignExecutionError(
                f"board {spec.fail_board} failed in shard {spec.shard_index}: "
                "injected fault (ShardSpec.fail_board)",
                board_id=spec.fail_board,
                shard_index=spec.shard_index,
            )
        try:
            trajectories = _run_fleet(spec, tracker, builders, tracer)
        except Exception as exc:
            raise CampaignExecutionError(
                f"fleet of shard {spec.shard_index} failed: {exc}",
                shard_index=spec.shard_index,
            ) from exc
    finally:
        if previous_profiler is not None:
            phase_deltas = install_profiler(previous_profiler).take()
    logger.debug(
        "shard %d finished: %d boards x %d snapshots",
        spec.shard_index,
        len(trajectories),
        spec.months + 1,
    )
    return ShardResult(
        shard_index=spec.shard_index,
        board_ids=spec.board_ids,
        trajectories=trajectories,
        counter_deltas=tracker.deltas,
        rollup_docs=[builder.take() for builder in builders] if builders else [],
        resources=sampler.sample(),
        spans=board_span_records(tracer, spec.board_ids),
        phase_deltas=phase_deltas,
    )
