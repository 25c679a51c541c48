"""Month-window workers: one month of one shard's boards at a time.

The checkpointed campaign path cannot hand workers full-trajectory
:class:`~repro.exec.plan.ShardSpec` orders — a checkpoint must be cut
*between* months, which requires the driver to get control back after
every month.  This module supplies the finer-grained work order:
:class:`WindowSpec` describes one month of one shard, carrying each
board *by value* as a :class:`BoardWindowState` (serialized device
state, or ``None`` at month 0 to manufacture the board in the worker),
and :func:`run_board_window` executes it.

Draw-order equivalence with the serial loop holds because boards never
share random streams: each board's stream sees manufacture → day-0
reference → month-0 block → month-0 aging → month-1 block → … in both
schedules, and the device state between windows round-trips exactly
through :func:`repro.store.checkpoint.board_state_doc`.  The same
window pipeline runs under :class:`~repro.exec.executor.SerialExecutor`
and :class:`~repro.exec.executor.ParallelExecutor`, which is why
checkpoint files — not just results — are byte-identical across worker
counts.

Telemetry follows the shard-worker convention: windows count work on
private registries and return deltas, split into *evaluation* deltas
(folded before the month's monitor poll) and *aging* deltas (folded
after, visible at the next poll) so the driver reproduces the serial
counter trajectory poll for poll.

Each window advances its boards together on one
:class:`~repro.sram.fleetkernel.FleetKernel`, and workers keep a
**warm fleet cache**: after every window the live kernel is remembered
keyed by its board ids, with the digest (:func:`state_digest`) of every
board's exported state document — the exact documents the campaign
will send back next month.  When the next window for those boards lands on
the same worker (the common case under
:class:`~repro.exec.pool.WindowPool`, which keeps workers alive for the
whole campaign) the incoming digests match and the worker skips
re-deserializing every board's skew state.  A hit is *provably*
equivalent to a restore — the digests only match when the cached
kernel's current state equals the requested inbound state, and state
documents round-trip bit-exactly — so the serial≡parallel
byte-identity gates hold with the cache on.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import logging
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

import numpy as np

from repro.analysis.monthly import BoardMonthMetrics, evaluate_fleet
from repro.errors import CampaignExecutionError
from repro.exec.plan import normalize_profile_fields, rollup_shard_of
from repro.exec.worker import board_span_records
from repro.sram.fleetkernel import build_fleet_kernel
from repro.sram.profiles import DeviceProfile
from repro.store.checkpoint import (
    board_state_from_doc,
    board_state_to_doc,
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

_CACHE_STATS = {"hits": 0, "misses": 0}

#: Warm per-process fleet cache: the window's board-ids tuple ->
#: (per-board state digests, live FleetKernel).  An entry is only
#: reused when every board's inbound digest matches the cached fleet's
#: exported state, so a hit merely skips B deserializations.
_FLEET_CACHE: Dict[Tuple[int, ...], Tuple[Tuple[str, ...], Any]] = {}

#: Fleet-cache safety valve (entries are whole fleets, so keep few).
_FLEET_CACHE_LIMIT = 8

#: Sharded-store state carry: ``(shard root, config digest)`` ->
#: ``(completed month, board state docs)``.  Under a sharded store the
#: driver sends ``state=None`` for every board (device state never
#: leaves the worker); the worker that ran the shard's previous month
#: finds it here, any other worker cold-restores from the shard's own
#: newest keyframe and silently replays the gap.  Keyed by config
#: digest so two campaigns sharing a process can never cross-feed.
_SHARD_STATE_CACHE: Dict[Tuple[str, str], Tuple[int, Dict[int, Dict[str, Any]]]] = {}

#: Shard-state safety valve: entries hold a whole shard's state docs,
#: and a serial executor walks every shard through one process.
_SHARD_STATE_CACHE_LIMIT = 64


def state_digest(state: Dict[str, Any]) -> str:
    """Canonical digest of a :func:`board_state_doc` document.

    Sorted-key JSON makes the digest independent of dict construction
    order, so a state document round-tripped through a checkpoint file
    hashes the same as one fresh out of a worker.
    """
    payload = json.dumps(state, sort_keys=True).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()


def window_cache_stats() -> Dict[str, int]:
    """Per-board hit/miss counters of this process's warm fleet cache."""
    return dict(_CACHE_STATS)


def clear_window_cache() -> None:
    """Drop the warm fleet/shard caches and zero their statistics."""
    _FLEET_CACHE.clear()
    _SHARD_STATE_CACHE.clear()
    _CACHE_STATS["hits"] = 0
    _CACHE_STATS["misses"] = 0


def _cached_fleet(board_ids: Tuple[int, ...], digests: Tuple[str, ...]):
    """The warm FleetKernel at these boards' inbound states, or ``None``.

    Hit/miss statistics count one per board.
    """
    cached = _FLEET_CACHE.get(board_ids)
    if cached is not None and cached[0] == digests:
        _CACHE_STATS["hits"] += len(board_ids)
        return cached[1]
    _CACHE_STATS["misses"] += len(board_ids)
    return None


def _export_fleet(board_ids: Tuple[int, ...], kernel) -> Dict[int, Dict[str, Any]]:
    """The fleet's board state documents; the live kernel is cached at them."""
    raw_states = kernel.export_states()
    states = {board: board_state_to_doc(raw_states[board]) for board in board_ids}
    digests = tuple(state_digest(states[board]) for board in board_ids)
    if board_ids not in _FLEET_CACHE and len(_FLEET_CACHE) >= _FLEET_CACHE_LIMIT:
        _FLEET_CACHE.clear()
    _FLEET_CACHE[board_ids] = (digests, kernel)
    return states


def _remember_shard_states(
    shard_store: ShardStoreSpec, month: int, states: Dict[int, Dict[str, Any]]
) -> None:
    key = (shard_store.root, shard_store.config_digest)
    if key not in _SHARD_STATE_CACHE and len(_SHARD_STATE_CACHE) >= _SHARD_STATE_CACHE_LIMIT:
        _SHARD_STATE_CACHE.clear()
    _SHARD_STATE_CACHE[key] = (month, states)


def _restore_shard_states(spec: "WindowSpec") -> Dict[int, Dict[str, Any]]:
    """Cold-restore a shard's board states for a month-``m`` window.

    Loads the shard's newest keyframe at or below month ``m-1`` and
    *silently replays* the months in between — the same measurement and
    aging calls the original months made, with the recorded block
    temperatures, so every board's RNG stream lands on exactly the draw
    position the warm path would have.  Replay touches no telemetry
    registries and no rollup builders: the replayed months were already
    counted and persisted by the run that first executed them.
    """
    shard_store = spec.shard_store
    if len(shard_store.temperatures) < spec.month:
        raise CampaignExecutionError(
            f"shard store spec of shard {spec.shard_index} carries "
            f"{len(shard_store.temperatures)} month temperatures, month "
            f"{spec.month} window needs the full history",
            shard_index=spec.shard_index,
        )
    keyframe = load_latest_shard_keyframe(shard_store.root, max_month=spec.month - 1)
    states = {board: dict(doc) for board, doc in keyframe.boards.items()}
    if set(states) != set(spec.board_ids):
        raise CampaignExecutionError(
            f"shard {spec.shard_index} keyframe covers boards "
            f"{sorted(states)}, window expects {sorted(spec.board_ids)}",
            shard_index=spec.shard_index,
        )
    gap = range(keyframe.completed_month + 1, spec.month)
    logger.info(
        "shard %d cold restore from keyframe month %d (replaying %d month(s))",
        spec.shard_index,
        keyframe.completed_month,
        len(gap),
    )
    if not gap:
        return states
    references = {board.board_id: board.reference for board in spec.boards}
    kernel = build_fleet_kernel(
        spec.board_ids,
        spec.board_profiles,
        states={board: board_state_from_doc(states[board]) for board in spec.board_ids},
    )
    for month in gap:
        evaluate_fleet(
            kernel,
            references,
            measurements=spec.measurements,
            statistical=spec.statistical,
            temperature_k=shard_store.temperatures[month],
        )
        kernel.age_months(spec.aging_acceleration, steps=spec.aging_steps_per_month)
    return _export_fleet(spec.board_ids, kernel)


def _attach_shard_states(spec: "WindowSpec") -> "WindowSpec":
    """Fill a sharded window's ``state=None`` boards with real state.

    The warm path is the shard-state carry of the worker that ran this
    shard's previous month; any other worker (or a resumed process)
    cold-restores from the shard's own keyframe chain via
    :func:`_restore_shard_states`.
    """
    shard_store = spec.shard_store
    cached = _SHARD_STATE_CACHE.get((shard_store.root, shard_store.config_digest))
    if cached is not None and cached[0] == spec.month - 1:
        states = cached[1]
        if set(states) != set(spec.board_ids):
            states = _restore_shard_states(spec)
    else:
        states = _restore_shard_states(spec)
    boards = tuple(
        dataclasses.replace(board, state=states[board.board_id])
        for board in spec.boards
    )
    return dataclasses.replace(spec, boards=boards)


@dataclass(frozen=True)
class BoardWindowState:
    """One board's inbound state for a month window.

    ``state is None`` means the board does not exist yet (month 0): the
    worker manufactures it from the seed hierarchy and takes its day-0
    reference read-out.  Afterwards ``state`` is a
    :func:`~repro.store.checkpoint.board_state_doc` document and
    ``reference`` the day-0 read-out.
    """

    board_id: int
    state: Optional[Dict[str, Any]] = field(repr=False, default=None)
    reference: Optional[np.ndarray] = field(repr=False, default=None)


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
    #: Homogeneous shorthand — every board shares this profile.  Mixed
    #: windows instead carry the interned ``profiles`` table plus
    #: per-board ``profile_index`` entries (aligned with ``boards``),
    #: mirroring :class:`~repro.exec.plan.ShardSpec`.
    profile: Optional[DeviceProfile] = field(default=None, repr=False)
    profiles: Tuple[DeviceProfile, ...] = field(default=(), repr=False)
    profile_index: Tuple[int, ...] = ()
    statistical: bool = True
    temperature: Optional[float] = None
    apply_aging: bool = True
    aging_steps_per_month: int = 2
    aging_acceleration: float = 1.0
    boards: Tuple[BoardWindowState, ...] = ()
    fail_board: Optional[int] = None
    rollup_shards: int = 0
    fleet_size: int = 0
    #: Observability context (``None`` keeps the spec byte-compatible
    #: with the pre-tracing pickle); mirrors ``ShardSpec.trace``.
    trace: Optional[TraceContext] = None
    #: Sharded persistence order (``None`` = monolithic: the driver
    #: checkpoints centrally and boards travel by value).  When set,
    #: the worker owns the shard's store: device state stays local
    #: (``boards`` arrive with ``state=None`` after month 0 and the
    #: result ships ``states={}``), and the worker persists the month's
    #: rows + chain file itself before returning.
    shard_store: Optional[ShardStoreSpec] = None

    def __post_init__(self) -> None:
        normalize_profile_fields(self, len(self.boards))

    @property
    def board_ids(self) -> Tuple[int, ...]:
        """Boards of this window (for executor error reports)."""
        return tuple(board.board_id for board in self.boards)

    @property
    def board_profiles(self) -> Tuple[DeviceProfile, ...]:
        """Per-board profiles, aligned with ``boards``."""
        return tuple(self.profiles[i] for i in self.profile_index)


@dataclass(frozen=True)
class WindowResult:
    """Everything one month window sends back to the driver."""

    shard_index: int
    month: int
    rows: Dict[int, BoardMonthMetrics] = field(repr=False)
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


def _registry_deltas(registry: MetricsRegistry) -> Dict[str, int]:
    """Non-zero counter values of a private window registry."""
    return {
        name: int(doc["value"])
        for name, doc in registry.snapshot().items()
        if doc["type"] == "counter" and doc["value"]
    }


def _run_window_fleet(
    spec: WindowSpec,
    powerups,
    aging_steps,
    builder: Optional[ShardRollupBuilder],
    tracer: Optional[Tracer],
):
    """One month of the window's boards, together on one FleetKernel.

    Returns ``(rows, states, references)``: the boards' monthly rows,
    their outbound state documents and — for a month-0 window — their
    day-0 references.
    """
    board_ids = spec.board_ids
    boards = len(board_ids)
    fresh = [board.board_id for board in spec.boards if board.state is None]
    new_references: Dict[int, np.ndarray] = {}
    with tracer.span("worker.board") if tracer is not None else NULL_SPAN:
        if len(fresh) == boards:
            kernel = build_fleet_kernel(
                board_ids, spec.board_profiles, root_seed=spec.root_seed
            )
            new_references = dict(zip(kernel.board_ids, kernel.read_startup()))
            powerups.inc(boards)  # the day-0 reference read-outs
            references = new_references
        elif fresh:
            raise CampaignExecutionError(
                f"a window needs every board manufactured or every board "
                f"restored: boards {fresh} have no state while others do "
                f"(month-{spec.month} window of shard {spec.shard_index})",
                shard_index=spec.shard_index,
            )
        else:
            digests = tuple(state_digest(board.state) for board in spec.boards)
            kernel = _cached_fleet(board_ids, digests)
            if kernel is None:
                kernel = build_fleet_kernel(
                    board_ids,
                    spec.board_profiles,
                    states={
                        board.board_id: board_state_from_doc(board.state)
                        for board in spec.boards
                    },
                )
            references = {board.board_id: board.reference for board in spec.boards}
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
        states = _export_fleet(board_ids, kernel)
    return rows, states, new_references


def run_board_window(spec: WindowSpec) -> WindowResult:
    """Execute one month for every board of one shard.

    Month 0 additionally manufactures each board and takes its day-0
    reference (exactly the serial campaign's draw order).  Failures
    surface as :class:`~repro.errors.CampaignExecutionError` naming the
    shard (and the board, for the ``fail_board`` hook, which fires
    before any board is touched), like the full-trajectory worker's.

    Under a sharded store (``spec.shard_store``) the boards arrive
    with ``state=None`` after month 0; the worker attaches its own
    carried (or keyframe-restored) state first, and persists the
    month's rows and chain file to the shard's store before returning
    a result with ``states={}``.
    """
    if spec.shard_store is not None and spec.month > 0:
        spec = _attach_shard_states(spec)
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
            rows, states, references = _run_window_fleet(
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
            # second.  The heavy state documents then stay in this
            # process — the result ships no board state at all.
            with get_profiler().phase(PHASE_STORE_IO):
                persist_shard_window(
                    spec.shard_store, spec.month, rows, states, references
                )
            _remember_shard_states(spec.shard_store, spec.month, states)
            states = {}
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
    )
