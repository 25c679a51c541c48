"""Month-window workers: one month of one shard's boards at a time.

The checkpointed campaign path cannot hand workers full-trajectory
:class:`~repro.exec.plan.ShardSpec` orders — a checkpoint must be cut
*between* months, which requires the driver to get control back after
every month.  This module supplies the finer-grained work order:
:class:`WindowSpec` describes one month of one shard by its board ids,
and :func:`run_board_window` executes it.

**Resident slots.**  A shard's boards live in the worker that runs the
shard, not in the work order.  Each process keeps one *slot* per shard
index — ``(run token, completed month, FleetKernel, references)`` — and
a window advances the slot's kernel by one month in place.  The slot
is used only when the window's run token matches and the window is for
month ``completed + 1``; the first window of a run says where the
boards come from instead:

* month 0 manufactures them from the seed hierarchy and takes their
  day-0 references;
* the first window after a resume carries the day-0 references plus,
  under the monolithic store, the keyframe state documents the parent
  loaded — under the sharded store the worker restores from the
  shard's own keyframe chain and silently replays the months after it.

Any other window without a matching slot raises
:class:`~repro.errors.CampaignExecutionError` naming the shard; stale
state is never reused.  :class:`~repro.exec.pool.WindowPool` sends a
shard to the same worker every month, so after the first window only
board ids cross the process boundary.  A window exports state
documents only when they will be written: in the parent's keyframe
months (``WindowSpec.return_states``, monolithic store) or in the
shard's own keyframe months (sharded store, persisted worker-side and
never returned).

Draw-order equivalence with the serial loop holds because boards never
share random streams: each board's stream sees manufacture → day-0
reference → month-0 block → month-0 aging → month-1 block → … in every
schedule, and a restored board's state round-trips exactly through
:func:`repro.store.checkpoint.board_state_doc`.  The same window
pipeline runs in-process and under :class:`~repro.exec.pool.WindowPool`,
which is why checkpoint files — not just results — are byte-identical
across worker counts.

Telemetry follows the shard-worker convention: windows count work on
private registries and return deltas, split into *evaluation* deltas
(folded before the month's monitor poll) and *aging* deltas (folded
after, visible at the next poll) so the driver reproduces the serial
counter trajectory poll for poll.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Any, Dict, NamedTuple, Optional, Tuple

import numpy as np

from repro.analysis.monthly import BoardMonthMetrics, evaluate_fleet
from repro.errors import CampaignExecutionError
from repro.exec.plan import normalize_profile_fields, rollup_shard_of
from repro.exec.worker import board_span_records
from repro.sram.fleetkernel import build_fleet_kernel
from repro.sram.profiles import DeviceProfile
from repro.store.artifact import ArtifactStore
from repro.store.checkpoint import (
    board_state_from_doc,
    board_state_to_doc,
    keyframe_due,
    load_latest_shard_keyframe,
)
from repro.store.shardstore import ShardStoreSpec, persist_shard_window
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.profiling import PHASE_AGING, PHASE_STORE_IO, PhaseProfiler
from repro.telemetry.resources import ResourceSampler
from repro.telemetry.rollup import ROLLUP_STATS, ShardRollupBuilder
from repro.telemetry.runtime import get_profiler, install_profiler
from repro.telemetry.tracing import NULL_SPAN, TraceContext, Tracer

logger = logging.getLogger(__name__)


class _Slot(NamedTuple):
    """One shard's resident boards, after month ``month``."""

    token: str
    month: int
    kernel: Any
    references: Dict[int, np.ndarray]


#: This process's resident slots, one per shard index.
_SLOTS: Dict[int, _Slot] = {}


def clear_window_cache() -> None:
    """Drop every resident slot of this process."""
    _SLOTS.clear()


@dataclass(frozen=True)
class WindowSpec:
    """One shard's work order for a single campaign month.

    ``rollup_shards``/``fleet_size`` mirror
    :class:`~repro.exec.plan.ShardSpec`: when ``rollup_shards`` is
    positive the window also returns exact partial rollup documents
    for its boards' month.  ``fail_board`` is the fault-injection
    hook — the worker raises before simulating any board of the
    window.
    """

    shard_index: int
    month: int
    root_seed: int
    measurements: int
    board_ids: Tuple[int, ...] = ()
    #: Identifies the campaign run; a resident slot serves only
    #: windows of the run that filled it.
    run_token: str = ""
    #: Homogeneous shorthand — every board shares this profile.  Mixed
    #: windows instead carry the interned ``profiles`` table plus
    #: per-board ``profile_index`` entries (aligned with ``board_ids``),
    #: mirroring :class:`~repro.exec.plan.ShardSpec`.
    profile: Optional[DeviceProfile] = field(default=None, repr=False)
    profiles: Tuple[DeviceProfile, ...] = field(default=(), repr=False)
    profile_index: Tuple[int, ...] = ()
    statistical: bool = True
    temperature: Optional[float] = None
    apply_aging: bool = True
    aging_steps_per_month: int = 2
    aging_acceleration: float = 1.0
    #: Day-0 references, sent only with the first window after a
    #: resume: the worker rebuilds the shard's slot instead of using
    #: it.  ``states`` then holds the keyframe state documents
    #: (monolithic store); under the sharded store it stays ``None``
    #: and the worker restores from the shard's own keyframe chain.
    references: Optional[Dict[int, np.ndarray]] = field(default=None, repr=False)
    states: Optional[Dict[int, Dict[str, Any]]] = field(default=None, repr=False)
    #: Ship the boards' outbound state documents back (the parent's
    #: keyframe months under the monolithic store).
    return_states: bool = False
    fail_board: Optional[int] = None
    rollup_shards: int = 0
    fleet_size: int = 0
    #: Observability context (``None`` keeps the spec byte-compatible
    #: with the pre-tracing pickle); mirrors ``ShardSpec.trace``.
    trace: Optional[TraceContext] = None
    #: Sharded persistence order (``None`` = monolithic: the driver
    #: checkpoints centrally).  When set, the worker owns the shard's
    #: store: it persists the month's rows + chain file itself before
    #: returning, and the result ships no board state.
    shard_store: Optional[ShardStoreSpec] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "board_ids", tuple(int(b) for b in self.board_ids))
        normalize_profile_fields(self, len(self.board_ids))

    @property
    def board_profiles(self) -> Tuple[DeviceProfile, ...]:
        """Per-board profiles, aligned with ``board_ids``."""
        return tuple(self.profiles[i] for i in self.profile_index)


@dataclass(frozen=True)
class WindowResult:
    """Everything one month window sends back to the driver."""

    shard_index: int
    month: int
    rows: Dict[int, BoardMonthMetrics] = field(repr=False)
    #: Outbound state documents; empty unless ``WindowSpec.return_states``.
    states: Dict[int, Dict[str, Any]] = field(repr=False)
    #: Day-0 references, populated only by month-0 windows.
    references: Dict[int, np.ndarray] = field(repr=False)
    #: Counters advanced by manufacture/reference/measurement work.
    eval_deltas: Dict[str, int] = field(repr=False)
    #: Counters advanced by the post-snapshot aging block.
    aging_deltas: Dict[str, int] = field(repr=False)
    #: Partial rollup documents for this window's month (empty when
    #: ``WindowSpec.rollup_shards`` is 0).
    rollups: Dict[str, dict] = field(default_factory=dict, repr=False)
    #: Worker resource sample for this window (wall/CPU/RSS).
    resources: Dict[str, float] = field(default_factory=dict, repr=False)
    #: Pickle-safe per-board span records in board order; empty unless
    #: ``WindowSpec.trace.spans`` was set.
    spans: list = field(default_factory=list, repr=False)
    #: Hot-path phase totals of this window; empty unless
    #: ``WindowSpec.trace.phases`` was set.
    phase_deltas: Dict[str, Dict[str, float]] = field(default_factory=dict, repr=False)
    #: Months rebuilt from stored state before this window ran: the
    #: keyframe restored from, then any month replayed after it.  Empty
    #: when the window manufactured its boards or found them resident.
    restored_months: Tuple[int, ...] = ()


def _registry_deltas(registry: MetricsRegistry) -> Dict[str, int]:
    """Non-zero counter values of a private window registry."""
    return {
        name: int(doc["value"])
        for name, doc in registry.snapshot().items()
        if doc["type"] == "counter" and doc["value"]
    }


def _restore_kernel(spec: WindowSpec) -> Tuple[Any, Tuple[int, ...]]:
    """Rebuild a shard's kernel at the start of ``spec.month`` after a resume.

    Under the monolithic store the states are the parent's keyframe of
    month ``m-1``.  Under the sharded store the worker loads the shard's
    newest keyframe at or below month ``m-1`` and *silently replays*
    the months in between — the same measurement and aging calls the
    original months made, with the recorded block temperatures, so
    every board's RNG stream lands on exactly the draw position of the
    uninterrupted run.  Replay touches no telemetry registries and no
    rollup builders: those months were already counted and persisted.
    Returns the kernel and the restored months.
    """
    shard_store = spec.shard_store
    if shard_store is None:
        if spec.states is None:
            raise CampaignExecutionError(
                f"month-{spec.month} window of shard {spec.shard_index} carries "
                f"references but no state documents to restore from",
                shard_index=spec.shard_index,
            )
        states, keyframe_month = spec.states, spec.month - 1
    else:
        if len(shard_store.temperatures) < spec.month:
            raise CampaignExecutionError(
                f"shard store spec of shard {spec.shard_index} carries "
                f"{len(shard_store.temperatures)} month temperatures, month "
                f"{spec.month} window needs the full history",
                shard_index=spec.shard_index,
            )
        keyframe = load_latest_shard_keyframe(shard_store.root, max_month=spec.month - 1)
        states, keyframe_month = keyframe.boards, keyframe.completed_month
    if set(states) != set(spec.board_ids):
        raise CampaignExecutionError(
            f"shard {spec.shard_index} keyframe covers boards "
            f"{sorted(states)}, window expects {sorted(spec.board_ids)}",
            shard_index=spec.shard_index,
        )
    kernel = build_fleet_kernel(
        spec.board_ids,
        spec.board_profiles,
        states={board: board_state_from_doc(states[board]) for board in spec.board_ids},
    )
    gap = range(keyframe_month + 1, spec.month)
    logger.info(
        "shard %d restored from keyframe month %d (replaying %d month(s))",
        spec.shard_index,
        keyframe_month,
        len(gap),
    )
    for month in gap:
        evaluate_fleet(
            kernel,
            spec.references,
            measurements=spec.measurements,
            statistical=spec.statistical,
            temperature_k=shard_store.temperatures[month],
        )
        kernel.age_months(spec.aging_acceleration, steps=spec.aging_steps_per_month)
    return kernel, (keyframe_month, *gap)


def _resident_kernel(spec: WindowSpec) -> Tuple[Any, Dict[int, np.ndarray]]:
    """The shard's slot kernel and references; the slot is taken out.

    A failing window therefore never leaves half-advanced state behind:
    the slot is only put back once the window has finished.
    """
    slot = _SLOTS.pop(spec.shard_index, None)
    if slot is None or slot.token != spec.run_token or slot.month != spec.month - 1:
        held = "nothing" if slot is None else f"run {slot.token} after month {slot.month}"
        raise CampaignExecutionError(
            f"month-{spec.month} window of shard {spec.shard_index} needs run "
            f"{spec.run_token} after month {spec.month - 1}; this worker holds {held}",
            shard_index=spec.shard_index,
        )
    return slot.kernel, slot.references


def _wants_states(spec: WindowSpec) -> bool:
    """Whether this window's outbound state documents get written."""
    if spec.shard_store is None:
        return spec.return_states
    return keyframe_due(
        ArtifactStore(spec.shard_store.root), spec.month, spec.shard_store.keyframe_every
    )


def _run_window_fleet(
    spec: WindowSpec,
    powerups,
    aging_steps,
    builder: Optional[ShardRollupBuilder],
    tracer: Optional[Tracer],
):
    """One month of the window's boards, together on one FleetKernel.

    Returns ``(rows, states, new_references, restored_months, slot)``:
    the boards' monthly rows, their outbound state documents (empty
    unless :func:`_wants_states`), the day-0 references of a month-0
    window, the months restored before the window ran and the shard's
    slot after this month.
    """
    board_ids = spec.board_ids
    boards = len(board_ids)
    new_references: Dict[int, np.ndarray] = {}
    restored: Tuple[int, ...] = ()
    with tracer.span("worker.board") if tracer is not None else NULL_SPAN:
        if spec.month == 0:
            kernel = build_fleet_kernel(
                board_ids, spec.board_profiles, root_seed=spec.root_seed
            )
            new_references = dict(zip(kernel.board_ids, kernel.read_startup()))
            powerups.inc(boards)  # the day-0 reference read-outs
            references = new_references
        elif spec.references is not None:
            kernel, restored = _restore_kernel(spec)
            references = spec.references
        else:
            kernel, references = _resident_kernel(spec)
        with tracer.span("board.measure") if tracer is not None else NULL_SPAN:
            fleet_rows = evaluate_fleet(
                kernel,
                references,
                measurements=spec.measurements,
                statistical=spec.statistical,
                temperature_k=spec.temperature,
            )
        rows = {row.board_id: row for row in fleet_rows}
        if builder is not None:
            for row in fleet_rows:
                builder.observe_board(
                    row.board_id,
                    {stat: getattr(row, stat) for stat in ROLLUP_STATS},
                )
        powerups.inc(spec.measurements * boards)
        if spec.apply_aging:
            with tracer.span("board.age") if tracer is not None else NULL_SPAN:
                with get_profiler().phase(PHASE_AGING, calls=boards):
                    kernel.age_months(
                        spec.aging_acceleration,
                        steps=spec.aging_steps_per_month,
                    )
            aging_steps.inc(spec.aging_steps_per_month * boards)
        states: Dict[int, Dict[str, Any]] = {}
        if _wants_states(spec):
            raw_states = kernel.export_states()
            states = {board: board_state_to_doc(raw_states[board]) for board in board_ids}
    slot = _Slot(spec.run_token, spec.month, kernel, references)
    return rows, states, new_references, restored, slot


def run_board_window(spec: WindowSpec) -> WindowResult:
    """Execute one month for every board of one shard.

    Month 0 additionally manufactures each board and takes its day-0
    reference (exactly the serial campaign's draw order); later months
    advance the shard's resident slot, or rebuild it in the first
    window after a resume (see the module docstring).  Failures
    surface as :class:`~repro.errors.CampaignExecutionError` naming the
    shard (and the board, for the ``fail_board`` hook, which fires
    before any board is touched), like the full-trajectory worker's.

    Under a sharded store (``spec.shard_store``) the worker persists
    the month's rows and chain file to the shard's store before
    returning a result with ``states={}``.
    """
    sampler = ResourceSampler()
    eval_registry = MetricsRegistry()
    aging_registry = MetricsRegistry()
    powerups = eval_registry.counter("campaign.powerups")
    aging_steps = aging_registry.counter("campaign.aging_steps")
    builder: Optional[ShardRollupBuilder] = None
    if spec.rollup_shards > 0:
        builder = ShardRollupBuilder(
            lambda b: rollup_shard_of(b, spec.fleet_size, spec.rollup_shards)
        )

    trace = spec.trace
    tracer: Optional[Tracer] = None
    if trace is not None and trace.spans:
        tracer = Tracer(enabled=True)
    previous_profiler: Optional[PhaseProfiler] = None
    phase_deltas: Dict[str, Dict[str, float]] = {}
    if trace is not None and trace.phases:
        previous_profiler = install_profiler(PhaseProfiler(enabled=True))

    try:
        if spec.fail_board is not None and spec.fail_board in spec.board_ids:
            raise CampaignExecutionError(
                f"board {spec.fail_board} failed in month-{spec.month} window "
                f"of shard {spec.shard_index}: injected fault (WindowSpec.fail_board)",
                board_id=spec.fail_board,
                shard_index=spec.shard_index,
            )
        try:
            rows, states, references, restored, slot = _run_window_fleet(
                spec, powerups, aging_steps, builder, tracer
            )
        except CampaignExecutionError:
            raise
        except Exception as exc:
            raise CampaignExecutionError(
                f"fleet of month-{spec.month} window of shard "
                f"{spec.shard_index} failed: {exc}",
                shard_index=spec.shard_index,
            ) from exc
        if spec.shard_store is not None:
            # The month is only "done" once the shard's own store says
            # so: rows record first, chain file (the commit mark)
            # second.  The state documents stay in this process.
            with get_profiler().phase(PHASE_STORE_IO):
                persist_shard_window(
                    spec.shard_store, spec.month, rows, states, slot.references
                )
            states = {}
        if spec.apply_aging:
            # Only a month that aged has a next month to serve.
            _SLOTS[spec.shard_index] = slot
    finally:
        if previous_profiler is not None:
            phase_deltas = install_profiler(previous_profiler).take()
    logger.debug(
        "window finished: shard %d month %d, %d boards",
        spec.shard_index,
        spec.month,
        len(rows),
    )
    return WindowResult(
        shard_index=spec.shard_index,
        month=spec.month,
        rows=rows,
        states=states,
        references=references,
        eval_deltas=_registry_deltas(eval_registry),
        aging_deltas=_registry_deltas(aging_registry),
        rollups=builder.take() if builder is not None else {},
        resources=sampler.sample(),
        spans=board_span_records(tracer, spec.board_ids),
        phase_deltas=phase_deltas,
        restored_months=restored,
    )
