"""Month-window workers: one month of one shard's boards at a time.

Every campaign run is a sequence of month windows: the driver gets
control back after every month to assemble the snapshot, feed the
monitor and, when persistence is on, cut a checkpoint.
:class:`WindowSpec` describes one month of one shard by its board ids,
and :func:`run_board_window` executes it.

**Resident slots.**  A shard's boards live in the worker that runs the
shard, not in the work order.  Each process keeps one *slot* per shard
index — ``(run token, completed month, FleetKernel, references)`` — and
a window advances the slot's kernel by one month in place.  The slot
is used only when the window's run token matches and the window is for
month ``completed + 1``; the first window of a run says where the
boards come from instead:

* month 0 manufactures them from the seed hierarchy — or, for an
  injected fleet, restores the chips' exported states — and takes their
  day-0 references;
* the first window after a resume carries the day-0 references; the
  worker restores from the shard's own keyframe chain and silently
  replays the months after it — or, resuming a legacy campaign-scoped
  directory, from the keyframe state documents the parent loaded.

Any other window without a matching slot raises
:class:`~repro.errors.CampaignExecutionError` naming the shard; stale
state is never reused.  :class:`~repro.exec.pool.WindowPool` sends a
shard to the same worker every month, so after the first window only
board ids cross the process boundary.  A window exports state
documents only in its shard's keyframe months, and persists them
itself; they never travel back to the parent.

Draw-order equivalence across worker counts holds because boards
never share random streams: each board's stream sees manufacture →
day-0 reference → month-0 block → month-0 aging → month-1 block → … in
every schedule, and a restored board's state round-trips exactly through
:func:`repro.store.checkpoint.board_state_doc`.  The same window
pipeline runs in-process and under :class:`~repro.exec.pool.WindowPool`,
which is why checkpoint files — not just results — are byte-identical
across worker counts.

A window returns only what only the window knows: its boards' month
rows, the day-0 references of month 0, a resource sample, trace spans,
phase timings and the months it restored.  Windows do not touch the
process-global telemetry registries (they may share a process with
the driver under :class:`~repro.exec.executor.SerialExecutor`): the
driver derives the month's counters and shard rollups from the
assembled month itself.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Any, Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.analysis.monthly import FleetMonthMetrics, evaluate_fleet, reference_matrix
from repro.errors import CampaignExecutionError
from repro.exec.plan import normalize_profile_fields
from repro.io.bitutil import ensure_bit_matrix, pack_bit_vector, unpack_bits
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
from repro.telemetry.profiling import PHASE_AGING, PHASE_STORE_IO, PhaseProfiler
from repro.telemetry.resources import ResourceSampler
from repro.telemetry.runtime import get_profiler, install_profiler
from repro.telemetry.tracing import NULL_SPAN, TraceContext, Tracer, span_record

logger = logging.getLogger(__name__)


class _Slot(NamedTuple):
    """One shard's resident boards, after month ``month``.

    ``references`` is the boards' day-0 :func:`reference_matrix`, in
    kernel order, validated once when the slot was built.
    """

    token: str
    month: int
    kernel: Any
    references: np.ndarray


#: This process's resident slots, one per shard index.
_SLOTS: Dict[int, _Slot] = {}


def clear_window_cache() -> None:
    """Drop every resident slot of this process."""
    _SLOTS.clear()


@dataclass(frozen=True)
class WindowSpec:
    """One shard's work order for a single campaign month.

    The spec carries *values* (the root seed, the profiles, the month's
    temperature) rather than live objects, so it pickles to a lane under
    any start method on every platform.  It says nothing about
    rollups or counters: the driver derives those from the assembled
    month.  ``fail_board`` is the fault-injection hook — the worker
    raises before simulating any board of the window.
    """

    shard_index: int
    month: int
    root_seed: int
    measurements: int
    board_ids: Tuple[int, ...] = ()
    #: Identifies the campaign run; a resident slot serves only
    #: windows of the run that filled it.
    run_token: str = ""
    #: The interned table of *distinct* profiles plus per-board
    #: ``profile_index`` entries (aligned with ``board_ids``), so each
    #: profile pickles once per spec.
    profiles: Tuple[DeviceProfile, ...] = field(default=(), repr=False)
    profile_index: Tuple[int, ...] = ()
    statistical: bool = True
    temperature: Optional[float] = None
    apply_aging: bool = True
    aging_steps_per_month: int = 2
    aging_acceleration: float = 1.0
    #: Day-0 references, sent only with the first window after a
    #: resume: the worker rebuilds the shard's slot instead of using
    #: it, from the shard's own keyframe chain — or from ``states``,
    #: the keyframe state documents of a legacy campaign-scoped
    #: directory.  A month-0 window with ``states`` starts an injected
    #: fleet from those documents instead of manufacturing its boards.
    references: Optional[Dict[int, np.ndarray]] = field(default=None, repr=False)
    states: Optional[Dict[int, Dict[str, Any]]] = field(default=None, repr=False)
    fail_board: Optional[int] = None
    #: Observability context (``None`` when neither tracing nor phase
    #: profiling is live).  With ``trace.spans`` the worker records
    #: per-board spans on a private tracer and ships them back; with
    #: ``trace.phases`` likewise for hot-path phase timings.
    trace: Optional[TraceContext] = None
    #: Persistence order (``None`` = nothing is written).  When set,
    #: the worker owns the shard's store: it persists the month's rows
    #: + chain file itself before returning.
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
    #: The window's boards' month, one column record in board order.
    rows: FleetMonthMetrics = field(repr=False)
    #: Day-0 references, populated only by month-0 windows.
    references: Dict[int, np.ndarray] = field(repr=False)
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

    # The day-0 references are bit vectors: they pickle packed eight
    # bits per byte, like the rows' read-out matrix.
    def __getstate__(self) -> Dict[str, Any]:
        state = dict(self.__dict__)
        state["references"] = {
            board: pack_bit_vector(bits) for board, bits in self.references.items()
        }
        return state

    def __setstate__(self, state: Dict[str, Any]) -> None:
        state["references"] = {
            board: unpack_bits(*packed) for board, packed in state["references"].items()
        }
        self.__dict__.update(state)


def check_window_result(spec: WindowSpec, result: WindowResult) -> None:
    """Refuse a result that does not cover its window exactly.

    The result must be the spec's shard and month, with one row for
    every planned board, in plan order, and none other: a missing,
    foreign or unplanned board must never reach the assembled snapshot.
    Raises :class:`~repro.errors.CampaignExecutionError` naming the
    shard (and the first offending board).
    """
    shard = spec.shard_index
    if (result.shard_index, result.month) != (shard, spec.month):
        raise CampaignExecutionError(
            f"month-{spec.month} window of shard {shard} returned the result "
            f"of shard {result.shard_index}, month {result.month}",
            shard_index=shard,
        )
    returned = result.rows.board_ids
    if returned == spec.board_ids:
        return
    present = set(returned)
    missing = [board for board in spec.board_ids if board not in present]
    if missing:
        raise CampaignExecutionError(
            f"shard {shard} returned no month-{spec.month} rows for boards "
            f"{missing}; refusing to assemble a partial fleet",
            board_id=missing[0],
            shard_index=shard,
        )
    unplanned = sorted(present - set(spec.board_ids))
    if unplanned:
        raise CampaignExecutionError(
            f"shard {shard} returned month-{spec.month} rows for unplanned "
            f"boards {unplanned}",
            board_id=unplanned[0],
            shard_index=shard,
        )
    raise CampaignExecutionError(
        f"shard {shard} returned month-{spec.month} rows for boards "
        f"{list(returned)}, planned {list(spec.board_ids)}",
        shard_index=shard,
    )


def board_span_records(
    tracer: Optional[Tracer], board_ids: Tuple[int, ...]
) -> List[Dict[str, object]]:
    """Per-board span records of a window's trace.

    The kernel advances a window's boards together, so the worker
    traces one ``worker.board`` tree for the whole window and ships one
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


def _restore_kernel(spec: WindowSpec) -> Tuple[Any, np.ndarray, Tuple[int, ...]]:
    """Rebuild a shard's kernel at the start of ``spec.month`` after a resume.

    Resuming a legacy campaign-scoped directory, ``spec.states`` is the
    parent's keyframe of month ``m-1``.  Otherwise the worker loads the
    shard's newest keyframe at or below month ``m-1`` and *silently
    replays* the months in between — the same measurement and aging calls the
    original months made, with the recorded block temperatures, so
    every board's RNG stream lands on exactly the draw position of the
    uninterrupted run.  Replay touches no telemetry: those months were
    already counted and persisted.
    Returns the kernel, the shard's day-0 :func:`reference_matrix`
    (from ``spec.references``) and the restored months.
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
    references = reference_matrix(
        spec.references, spec.board_ids, spec.board_profiles[0].read_bits
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
            references,
            measurements=spec.measurements,
            statistical=spec.statistical,
            temperature_k=shard_store.temperatures[month],
        )
        kernel.age_months(spec.aging_acceleration, steps=spec.aging_steps_per_month)
    return kernel, references, (keyframe_month, *gap)


def _resident_kernel(spec: WindowSpec) -> Tuple[Any, np.ndarray]:
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
    return spec.shard_store is not None and keyframe_due(
        ArtifactStore(spec.shard_store.root), spec.month, spec.shard_store.keyframe_every
    )


def _run_window_fleet(spec: WindowSpec, tracer: Optional[Tracer]):
    """One month of the window's boards, together on one FleetKernel.

    Returns ``(rows, states, new_references, restored_months, slot)``:
    the boards' monthly record, their outbound state documents (empty
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
                board_ids,
                spec.board_profiles,
                root_seed=spec.root_seed,
                states=(
                    None
                    if spec.states is None
                    else {b: board_state_from_doc(spec.states[b]) for b in board_ids}
                ),
            )
            references = ensure_bit_matrix(kernel.read_startup())
            new_references = dict(zip(kernel.board_ids, references))
        elif spec.references is not None:
            kernel, references, restored = _restore_kernel(spec)
        else:
            kernel, references = _resident_kernel(spec)
        with tracer.span("board.measure") if tracer is not None else NULL_SPAN:
            rows = evaluate_fleet(
                kernel,
                references,
                measurements=spec.measurements,
                statistical=spec.statistical,
                temperature_k=spec.temperature,
            )
        if spec.apply_aging:
            with tracer.span("board.age") if tracer is not None else NULL_SPAN:
                with get_profiler().phase(PHASE_AGING, calls=boards):
                    kernel.age_months(
                        spec.aging_acceleration,
                        steps=spec.aging_steps_per_month,
                    )
        states: Dict[int, Dict[str, Any]] = {}
        if _wants_states(spec):
            raw_states = kernel.export_states()
            states = {board: board_state_to_doc(raw_states[board]) for board in board_ids}
    slot = _Slot(spec.run_token, spec.month, kernel, references)
    return rows, states, new_references, restored, slot


def run_board_window(spec: WindowSpec) -> WindowResult:
    """Execute one month for every board of one shard.

    Month 0 additionally manufactures each board (or restores an
    injected fleet) and takes its day-0 reference; later months
    advance the shard's resident slot, or rebuild it in the first
    window after a resume (see the module docstring).  Failures
    surface as :class:`~repro.errors.CampaignExecutionError` naming the
    shard (and the board, for the ``fail_board`` hook, which fires
    before any board is touched).

    With persistence on (``spec.shard_store``) the worker persists the
    month's rows and chain file to the shard's store before returning.
    """
    sampler = ResourceSampler()
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
            rows, states, references, restored, slot = _run_window_fleet(spec, tracer)
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
            # second.
            with get_profiler().phase(PHASE_STORE_IO):
                persist_shard_window(
                    spec.shard_store, spec.month, rows, states, references
                )
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
        references=references,
        resources=sampler.sample(),
        spans=board_span_records(tracer, spec.board_ids),
        phase_deltas=phase_deltas,
        restored_months=restored,
    )
