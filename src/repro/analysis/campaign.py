"""The long-term campaign driver.

:class:`LongTermCampaign` reproduces the paper's two-year study: it
manufactures a fleet of devices on one
:class:`~repro.sram.fleetkernel.FleetKernel`, takes each device's
first-ever read-out as the lifetime reference, then alternates monthly
snapshots (:func:`~repro.analysis.monthly.evaluate_fleet`) with one
month of nominal-condition aging, for 25 snapshots in total (Feb 2017
through Feb 2019 inclusive).

An optional ambient-temperature random walk perturbs each month's
measurement temperature around the nominal, mimicking an uncontrolled
"room temperature" lab.
"""

from __future__ import annotations

import logging
import math
import uuid
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.monthly import MonthlyEvaluation, assemble_evaluation
from repro.errors import (
    CampaignExecutionError,
    CampaignInterrupted,
    ConfigurationError,
    StorageError,
)
from repro.rng import RandomState, SeedHierarchy
from repro.sram.chip import SRAMChip
from repro.sram.population import PopulationSpec
from repro.sram.profiles import ATMEGA32U4, DeviceProfile
from repro.store.checkpoint import DEFAULT_KEYFRAME_EVERY, check_keyframe_every
from repro.telemetry import (
    PHASE_MONITOR,
    PHASE_STORE_IO,
    get_flight_recorder,
    get_metrics,
    get_profiler,
    get_rollups,
    get_tracer,
    graft_records,
    profiling_enabled,
    rollups_enabled,
)

if TYPE_CHECKING:  # pragma: no cover - typing aid only
    from repro.exec.executor import CampaignExecutor
    from repro.monitor.hub import MonitorHub

logger = logging.getLogger(__name__)

#: Progress callback signature: ``callback(completed_snapshots, total_snapshots)``.
ProgressCallback = Callable[[int, int], None]


@dataclass(frozen=True)
class CampaignResult:
    """Everything a finished campaign produced.

    ``snapshots[m]`` is the evaluation at age ``m`` months;
    ``snapshots[0]`` is the initial (unaged) evaluation.
    """

    profile_name: str
    months: int
    measurements: int
    board_ids: List[int]
    references: Dict[int, np.ndarray] = field(repr=False)
    snapshots: List[MonthlyEvaluation] = field(repr=False)

    def __post_init__(self) -> None:
        if len(self.snapshots) != self.months + 1:
            raise ConfigurationError(
                f"expected {self.months + 1} snapshots, got {len(self.snapshots)}"
            )

    @property
    def start(self) -> MonthlyEvaluation:
        """The month-0 snapshot."""
        return self.snapshots[0]

    @property
    def end(self) -> MonthlyEvaluation:
        """The final snapshot."""
        return self.snapshots[-1]


class LongTermCampaign:
    """Drives a fleet of simulated devices through months of aging.

    Parameters
    ----------
    device_count:
        Fleet size (the paper's 16 boards).
    months:
        Aging duration; snapshots are taken at every month boundary
        including 0 (the paper's 24 months give 25 snapshots).
    measurements:
        Monthly block size (1,000 in the paper).
    profile:
        Device profile of the fleet (every board identical — the
        paper's testbed).  Ignored when ``population`` is given.
    population:
        Optional :class:`~repro.sram.population.PopulationSpec`
        describing a *heterogeneous* fleet: each board's profile is
        materialized deterministically from ``(spec, root_seed,
        board_id)`` (see ``docs/population.md``).  ``None`` (the
        default) keeps the homogeneous fleet byte-identical to
        pre-population releases.
    statistical:
        Simulation fidelity of the monthly blocks (see DESIGN.md §2).
    temperature_walk_k:
        Standard deviation of the month-to-month ambient-temperature
        random walk; 0 disables it.
    aging_steps_per_month:
        Integration sub-steps of the self-limiting drift per month.
    aging_acceleration:
        Equivalent field months of aging applied per calendar month
        (default 1.0, the paper's nominal-condition testbed).  Values
        above 1 inject accelerated aging — the time-compression factor
        is typically
        ``AccelerationModel.overall_factor ** (1 / n)`` from
        :mod:`repro.physics.acceleration`, turning the campaign into a
        stressed run whose drift the monitoring layer should flag.
    max_workers:
        Parallel worker processes for the board-sharded execution
        engine (:mod:`repro.exec`).  1 (the default) runs every month
        window in this process; higher values shard the fleet over
        worker lanes with bit-identical results (the
        ``tests/exec`` equivalence suite enforces this).
    keyframe_every:
        Full-state keyframe cadence of checkpointed runs: one keyframe
        every this many months (a positive ``int``), payload-free delta
        markers in between (see :mod:`repro.store.checkpoint` and
        ``docs/storage.md``).  Only consulted when ``checkpoint_dir``
        is used, but validated at construction.
    rollup_shards:
        Logical rollup-shard count for hierarchical observability
        (``None`` auto-sizes to ``min(8, device_count)``).  The shard
        map partitions the *fleet*, independently of ``max_workers``,
        so shard-scoped rollup series — and any alerts bound to them —
        are identical across worker counts.  Rollup ingestion is
        skipped entirely when
        :func:`repro.telemetry.rollups_enabled` is off.
    fail_board:
        Fault-injection hook: the worker that owns this board id raises
        before simulating it, surfacing as
        :class:`~repro.errors.CampaignExecutionError`.  Used by chaos
        drills and the CI flight-recorder smoke; leave ``None`` in
        production.
    shard_store:
        Accepted and ignored: every checkpointed run writes the
        sharded layout (``docs/storage.md``).
    random_state:
        Seed material; the same seed reproduces the same fleet and
        campaign.
    """

    def __init__(
        self,
        device_count: int = 16,
        months: int = 24,
        measurements: int = 1000,
        profile: DeviceProfile = ATMEGA32U4,
        population: Optional[PopulationSpec] = None,
        statistical: bool = True,
        temperature_walk_k: float = 0.0,
        aging_steps_per_month: int = 2,
        aging_acceleration: float = 1.0,
        max_workers: int = 1,
        keyframe_every: int = DEFAULT_KEYFRAME_EVERY,
        rollup_shards: Optional[int] = None,
        fail_board: Optional[int] = None,
        shard_store: bool = False,
        random_state: RandomState = None,
    ):
        if device_count < 1:
            raise ConfigurationError(f"device_count must be >= 1, got {device_count}")
        if months < 1:
            raise ConfigurationError(f"months must be >= 1, got {months}")
        if measurements < 2:
            raise ConfigurationError(f"measurements must be >= 2, got {measurements}")
        if temperature_walk_k < 0:
            raise ConfigurationError(
                f"temperature_walk_k cannot be negative, got {temperature_walk_k}"
            )
        if aging_steps_per_month < 1:
            raise ConfigurationError(
                f"aging_steps_per_month must be >= 1, got {aging_steps_per_month}"
            )
        if not math.isfinite(aging_acceleration) or aging_acceleration <= 0:
            raise ConfigurationError(
                f"aging_acceleration must be finite and positive, "
                f"got {aging_acceleration}"
            )
        if max_workers < 1:
            raise ConfigurationError(f"max_workers must be >= 1, got {max_workers}")
        check_keyframe_every(keyframe_every)
        if rollup_shards is not None and rollup_shards < 1:
            raise ConfigurationError(
                f"rollup_shards must be >= 1, got {rollup_shards}"
            )
        self._rollup_shards_opt = rollup_shards
        self._rollup_shards = (
            rollup_shards if rollup_shards is not None else min(8, device_count)
        )
        self._fail_board = fail_board
        self._device_count = device_count
        self._months = months
        self._measurements = measurements
        self._profile = profile
        self._statistical = statistical
        self._temperature_walk_k = temperature_walk_k
        self._aging_steps = aging_steps_per_month
        self._aging_acceleration = aging_acceleration
        self._max_workers = max_workers
        self._keyframe_every = keyframe_every
        self._seeds = (
            random_state
            if isinstance(random_state, SeedHierarchy)
            else SeedHierarchy(random_state if isinstance(random_state, int) else 0)
        )
        if population is not None and not isinstance(population, PopulationSpec):
            raise ConfigurationError(
                f"population must be a PopulationSpec, "
                f"got {type(population).__name__}"
            )
        self._population = population
        if population is None:
            # Homogeneous fleet: exactly the pre-population layout, so
            # artifacts, checkpoints and manifests stay byte-identical.
            self._profile_table: tuple = (profile,)
            self._profile_index: tuple = (0,) * device_count
            self._profile_labels: Optional[tuple] = None
            self._nominal_temperature = profile.temperature_k
        else:
            boards = range(device_count)
            table, index = population.materialize(self._seeds.root_seed, boards)
            self._profile_table = table
            self._profile_index = index
            self._profile_labels = population.member_labels(
                self._seeds.root_seed, boards
            )
            nominal = population.temperature_k
            if nominal is None and temperature_walk_k > 0:
                raise ConfigurationError(
                    "temperature_walk_k needs one nominal start temperature, "
                    "but the population mixes members with different "
                    "temperature_k"
                )
            self._nominal_temperature = (
                nominal if nominal is not None else profile.temperature_k
            )

    def _board_profile(self, board_id: int) -> DeviceProfile:
        """The materialized profile of fleet board ``board_id``."""
        return self._profile_table[self._profile_index[board_id]]

    def _profile_label_of(self, board_id: int) -> str:
        """Cohort label (member base-profile name) for rollup scopes."""
        return self._profile_labels[board_id]

    def _result_profile_name(self) -> str:
        """Fleet handle stamped into results and stream headers."""
        if self._population is not None:
            return self._population.display_name
        return self._profile.name

    @staticmethod
    def _profile_spec_fields(profiles: Sequence[DeviceProfile]) -> Dict[str, object]:
        """Profile kwargs of one shard's window specs.

        ``profiles`` are the shard's per-board profiles; they are
        re-interned into a table of the *distinct* profiles plus
        per-board indices, so each distinct profile pickles once per
        spawn payload.
        """
        table: Dict[DeviceProfile, int] = {}
        index = [table.setdefault(profile, len(table)) for profile in profiles]
        return {"profiles": tuple(table), "profile_index": tuple(index)}

    def build_fleet(self) -> List[SRAMChip]:
        """Manufacture the campaign's devices (deterministic per seed)."""
        return [
            SRAMChip(chip_id, self._board_profile(chip_id), random_state=self._seeds)
            for chip_id in range(self._device_count)
        ]

    def run(
        self,
        chips: Optional[Sequence[SRAMChip]] = None,
        progress: Optional[ProgressCallback] = None,
        monitor: Optional["MonitorHub"] = None,
        executor: Optional["CampaignExecutor"] = None,
        checkpoint_dir: Optional[str] = None,
        abort_after_month: Optional[int] = None,
    ) -> CampaignResult:
        """Execute the campaign and return its result.

        Every run is the same month loop: one dispatch of month
        windows (:mod:`repro.exec.windows`) per snapshot, whatever the
        worker count and whether or not checkpoints are written.

        ``chips`` may inject an externally built fleet (e.g. boards
        pulled out of a :class:`~repro.hardware.testbed.Testbed`);
        their current state is taken as day 0.  The month-0 windows
        start from the chips' exported states, under the chips' own ids
        and profiles, and leave the chips themselves unchanged.
        ``progress``, when
        given, is called after every monthly snapshot with
        ``(completed, total)`` snapshot counts (a
        :class:`~repro.monitor.heartbeat.SnapshotEmitter` plugs in
        here to write a tailable heartbeat file).

        ``monitor``, when given, receives every monthly snapshot
        (:meth:`~repro.monitor.hub.MonitorHub.observe_evaluation`) and
        a counter poll per month, so drift alerts fire *while the
        campaign runs* rather than in post-processing.

        ``executor`` overrides the execution strategy: the fleet is
        sharded by board over ``executor.max_workers`` shards (see
        :mod:`repro.exec` and ``docs/parallel.md``).  When ``None``,
        the constructor's ``max_workers`` decides — 1 runs every window
        in this process, more starts one
        :class:`~repro.exec.pool.WindowPool` for the campaign.  Either
        way the result is bit-identical: snapshots are assembled (and
        ``monitor``/``progress`` are fed) month by month in month
        order, so alert sequences are unchanged.

        The run is instrumented: a ``campaign.run`` span with one
        ``campaign.month`` child per snapshot, under which the workers'
        per-board ``worker.board`` spans are grafted, and the counters
        ``campaign.powerups``, ``campaign.snapshots`` and
        ``campaign.aging_steps`` (see ``docs/telemetry.md``).
        Telemetry and monitoring are purely observational — they read
        no random stream, so results are identical with either on or
        off.

        ``checkpoint_dir`` switches persistence on (see
        ``docs/storage.md``): the directory is cleared, a campaign
        manifest records the shard map (one shard per worker), and
        after each monthly snapshot every shard persists its boards'
        rows and chain file while the parent appends one month record.
        :meth:`resume` can later continue from the last complete month
        with byte-identical final results.  The checkpoint tree depends
        on the shard count; the artifact saved from the result does
        not.  ``abort_after_month`` (requires ``checkpoint_dir``)
        raises :class:`~repro.errors.CampaignInterrupted` right after
        that month's checkpoint is on disk — the deterministic
        interruption hook the kill-and-resume tests and the CI
        ``resume-smoke`` job use.
        """
        if chips is not None and self._population is not None:
            raise ConfigurationError(
                "an injected fleet cannot be combined with a population "
                "(board profiles are materialized from the spec); run "
                "without chips, or without population"
            )
        if abort_after_month is not None:
            if checkpoint_dir is None:
                raise ConfigurationError(
                    "abort_after_month requires checkpoint_dir (there is "
                    "nothing to resume from without checkpoints)"
                )
            if abort_after_month < 0:
                raise ConfigurationError(
                    f"abort_after_month cannot be negative, got {abort_after_month}"
                )
        if checkpoint_dir is not None and chips is not None:
            raise ConfigurationError(
                "an injected fleet cannot be checkpointed (resume rebuilds "
                "the fleet from the campaign's own configuration); run "
                "without chips to use checkpoint_dir"
            )
        if executor is None:
            from repro.exec.executor import executor_for

            executor = executor_for(self._max_workers)
        return self._run_windowed(
            executor,
            progress,
            monitor,
            checkpoint_dir,
            abort_after_month,
            chips=chips,
        )

    @classmethod
    def resume(
        cls,
        checkpoint_dir: str,
        progress: Optional[ProgressCallback] = None,
        monitor: Optional["MonitorHub"] = None,
        executor: Optional["CampaignExecutor"] = None,
        max_workers: int = 1,
        abort_after_month: Optional[int] = None,
    ) -> CampaignResult:
        """Continue a checkpointed campaign from its last complete month.

        The campaign configuration is rebuilt from the checkpoint
        itself (seed, profile, fleet size, walk — everything), so the
        caller only supplies the directory plus fresh observers.  The
        resumed run replays stored snapshots and counter deltas through
        ``monitor`` before continuing, so the final
        :class:`CampaignResult`, saved artifact, manifest and alert
        log are **byte-identical** to an uninterrupted run's — under
        any ``max_workers``, which may differ from the interrupted
        run's.  ``monitor`` must be freshly constructed (no prior
        observations); its alert log, if any, is truncated and
        regenerated by the replay.

        The resume month is whatever the parent log *and every shard*
        fully persisted; each shard restores from its newest keyframe
        and replays the at most ``keyframe_every - 1`` months after it
        (``docs/storage.md``).  The shard map comes from the manifest,
        so the resumed months append to the same shard directories
        whatever ``max_workers`` is.

        A legacy campaign-scoped directory (``month-NNNN.json`` files
        written by the parent, no manifest) is read, never extended:
        the campaign restores from its newest keyframe and finishes the
        remaining months without writing to the directory.
        """
        from repro.exec.executor import executor_for
        from repro.store.shardstore import is_sharded_checkpoint

        if is_sharded_checkpoint(checkpoint_dir):
            from repro.store.shardstore import load_sharded_checkpoint

            state = load_sharded_checkpoint(checkpoint_dir)
        else:
            from repro.store.legacy import load_latest_checkpoint

            state = load_latest_checkpoint(checkpoint_dir)
            logger.info(
                "%s is a legacy campaign-scoped checkpoint directory: "
                "resuming from its keyframe %s and finishing in memory; "
                "nothing is written to the directory",
                checkpoint_dir,
                state.source,
            )
        config = state.config
        population_doc = config.get("population")
        try:
            campaign = cls(
                device_count=int(config["device_count"]),
                months=int(config["months"]),
                measurements=int(config["measurements"]),
                profile=DeviceProfile(**config["profile"]),
                population=(
                    PopulationSpec.from_doc(population_doc)
                    if population_doc
                    else None
                ),
                statistical=bool(config["statistical"]),
                temperature_walk_k=float(config["temperature_walk_k"]),
                aging_steps_per_month=int(config["aging_steps_per_month"]),
                aging_acceleration=float(config["aging_acceleration"]),
                max_workers=max_workers,
                keyframe_every=int(
                    config.get("keyframe_every", DEFAULT_KEYFRAME_EVERY)
                ),
                rollup_shards=config.get("rollup_shards"),
                random_state=int(config["root_seed"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise StorageError(
                f"checkpoint {state.source} has an unusable config: {exc}"
            ) from exc
        if executor is None:
            executor = executor_for(max_workers)
        return campaign._run_windowed(
            executor,
            progress,
            monitor,
            checkpoint_dir,
            abort_after_month,
            resume_state=state,
        )

    def _month_counter_deltas(
        self, month: int, boards: int
    ) -> Tuple[Dict[str, int], Dict[str, int]]:
        """One month's ``(evaluation, aging)`` counter deltas for ``boards``.

        Evaluation: every board's measurement block, plus its day-0
        reference read-out in month 0.  Aging: the month's integration
        steps, when the month ages.  Evaluation deltas fold in before
        the month's monitor poll, aging deltas after it (visible at the
        next poll), so the counter trajectory is the same poll for poll
        at every worker count.
        """
        per_board = self._measurements + (1 if month == 0 else 0)
        evaluation = {"campaign.powerups": boards * per_board}
        aging = (
            {"campaign.aging_steps": self._aging_steps * boards}
            if month < self._months
            else {}
        )
        return evaluation, aging

    def _count_labeled_powerups(
        self, metrics, month: int, shard_sizes: Sequence[int]
    ) -> None:
        """Advance the per-shard ``campaign.powerups{shard=N}`` counters.

        ``shard_sizes`` are the board counts of the logical rollup
        shards, so every execution path advances the same labeled
        instruments by the same amounts at the same polls; month 0
        includes the day-0 reference read-outs.  These labeled counters
        ride the normal checkpoint delta channel (they are
        ``campaign.*``, not ``rollup.*``), so resume replay restores
        them from storage rather than recounting.
        """
        if not rollups_enabled():
            return
        per_board = self._measurements + (1 if month == 0 else 0)
        for shard, size in enumerate(shard_sizes):
            metrics.counter("campaign.powerups", labels={"shard": shard}).inc(
                size * per_board
            )

    def _graft_worker_spans(self, parent_span, results) -> None:
        """Attach worker-side span records under the dispatching span.

        Per-board records are concatenated across shards and sorted by
        board id before grafting, so the merged tree's names, structure
        and (after :meth:`~repro.telemetry.Tracer.assign_ids`) ids are
        independent of worker count and dispatch order.  No-op when
        tracing is off — workers then shipped no records.
        """
        if not get_tracer().enabled:
            return
        records = [record for result in results for record in result.spans]
        records.sort(
            key=lambda record: record.get("attributes", {}).get("board", -1)
        )
        graft_records(parent_span, records)

    def _merge_worker_phases(self, results) -> None:
        """Fold worker-side phase timer deltas into the parent profiler."""
        profiler = get_profiler()
        for result in results:
            if result.phase_deltas:
                profiler.merge(result.phase_deltas)

    def _ingest_worker_resources(self, samples) -> None:
        """Fold worker resource samples into the ``rollup.worker.*`` rollups.

        Resource numbers are inherently nondeterministic, so they are
        quarantined: they live only in the rollup registry (scope
        ``worker``, wide log-spaced sketch bounds), never in the metrics
        registry, never in checkpoints, and never in byte-compared
        artifacts.
        """
        if not rollups_enabled():
            return
        from repro.telemetry.rollup import WIDE_BOUNDS

        rollups = get_rollups()
        for sample in samples:
            if not sample:
                continue
            for key in ("wall_s", "cpu_s", "rss_kb"):
                value = sample.get(key)
                if value:
                    rollups.summary(
                        f"rollup.worker.{key}",
                        {"scope": "worker"},
                        bounds=WIDE_BOUNDS,
                    ).observe(float(value))

    def _ingest_rollups(self, evaluation) -> None:
        """Fold one assembled month's rollup summaries into the global registry.

        The live month and resume replay both derive the summaries here,
        from the assembled evaluation, so they are identical across
        worker counts and resume by construction.  No-op when rollups
        are globally disabled.
        """
        if not rollups_enabled():
            return
        from repro.telemetry.rollup import (
            evaluation_profile_docs,
            evaluation_shard_docs,
            fold_rollup_docs,
        )

        summaries = evaluation_shard_docs(evaluation, self._rollup_shards)
        if self._population is not None:
            summaries.update(
                evaluation_profile_docs(evaluation, self._profile_label_of)
            )
        fold_rollup_docs(get_rollups(), summaries, get_metrics())

    def _checkpoint_config(self) -> Dict:
        """The campaign's complete configuration as a JSON document.

        Stored inside every checkpoint so :meth:`resume` can rebuild
        the campaign without the caller re-supplying anything.
        """
        import dataclasses

        config = {
            "device_count": self._device_count,
            "months": self._months,
            "measurements": self._measurements,
            "statistical": self._statistical,
            "temperature_walk_k": self._temperature_walk_k,
            "aging_steps_per_month": self._aging_steps,
            "aging_acceleration": self._aging_acceleration,
            "keyframe_every": self._keyframe_every,
            "rollup_shards": self._rollup_shards_opt,
            "root_seed": self._seeds.root_seed,
            "profile": dataclasses.asdict(self._profile),
        }
        if self._population is not None:
            # Only heterogeneous campaigns record the key, so
            # homogeneous manifests keep their pre-population bytes.
            config["population"] = self._population.to_doc()
        return config

    def _run_windowed(
        self,
        executor: "CampaignExecutor",
        progress: Optional[ProgressCallback],
        monitor: Optional["MonitorHub"],
        checkpoint_dir: Optional[str],
        abort_after_month: Optional[int],
        resume_state=None,
        chips: Optional[Sequence[SRAMChip]] = None,
    ) -> CampaignResult:
        """Adopt the executor into a persistent pool, then run the loop.

        One pool lifetime per campaign: a multi-worker executor is
        wrapped in a :class:`~repro.exec.pool.WindowPool` so the
        per-month window dispatches do not respawn workers (see
        ``docs/parallel.md``).  A caller-supplied ``WindowPool`` passes
        through unchanged and stays open for the caller to reuse.
        """
        from repro.exec.pool import WindowPool

        dispatch = WindowPool.adopt(executor)
        try:
            return self._window_loop(
                dispatch,
                progress,
                monitor,
                checkpoint_dir,
                abort_after_month,
                resume_state=resume_state,
                chips=chips,
            )
        finally:
            if dispatch is not executor:
                dispatch.close()

    def _window_loop(
        self,
        executor,
        progress: Optional[ProgressCallback],
        monitor: Optional["MonitorHub"],
        checkpoint_dir: Optional[str],
        abort_after_month: Optional[int],
        resume_state=None,
        chips: Optional[Sequence[SRAMChip]] = None,
    ) -> CampaignResult:
        """The campaign's one month loop, persistence on or off.

        One executor dispatch per month: every shard advances its
        resident boards by exactly one month, persists them to its own
        store when ``checkpoint_dir`` is set, and returns metric rows;
        the driver checks each result covers its window, assembles the
        snapshot, feeds the monitor and appends the parent's month
        record.  Every run, any worker count, uses this one loop, so
        results are byte-identical across execution modes.

        The driver derives the month's counter deltas
        (:meth:`_month_counter_deltas`) and shard rollups
        (:meth:`_ingest_rollups`) from the plan and the assembled month;
        windows ship neither.  The per-poll deltas are recorded into the
        parent's month log so a resumed process can replay its registry
        — and the monitor's alert sequence — to the exact
        interrupted-run state.
        """
        from repro.exec.plan import partition_boards
        from repro.exec.windows import (
            WindowSpec,
            check_window_result,
            clear_window_cache,
            run_board_window,
        )
        from repro.store.artifact import ArtifactStore
        from repro.store.checkpoint import (
            CampaignCheckpointer,
            CounterDeltaRecorder,
            board_state_to_doc,
            fold_counter_deltas,
        )
        from repro.store.codecs import restore_rng_state, rng_state_doc
        from repro.store.shardstore import (
            ShardStoreSpec,
            prepare_shard_resume,
            shard_root,
        )

        metrics = get_metrics()
        tracer = get_tracer()
        snapshots_done = metrics.counter("campaign.snapshots")
        # One instrument set for every run, whatever its worker count.
        metrics.counter("campaign.powerups")
        metrics.counter("campaign.aging_steps")

        # A legacy campaign-scoped directory is read, never extended;
        # only its resume state carries the fleet's device state.
        legacy = resume_state is not None and resume_state.boards is not None
        persist = checkpoint_dir is not None and not legacy
        # An injected fleet starts from the chips' exported states, under
        # their own ids and profiles; otherwise month 0 manufactures it.
        day0_states: Optional[Dict[int, Dict]] = None
        if chips is None:
            board_ids = list(range(self._device_count))
            board_profiles = [self._board_profile(board) for board in board_ids]
        else:
            fleet = list(chips)
            if not fleet:
                raise ConfigurationError("campaign fleet is empty")
            board_ids = [chip.chip_id for chip in fleet]
            board_profiles = [chip.profile for chip in fleet]
            day0_states = {
                chip.chip_id: board_state_to_doc(chip.array.export_state())
                for chip in fleet
            }
        if self._fail_board is not None and self._fail_board not in board_ids:
            raise ConfigurationError(
                f"fail_board {self._fail_board} is not a board of the fleet "
                f"({len(board_ids)} boards)"
            )
        metrics.gauge("campaign.devices").set(len(board_ids))
        profile_of = dict(zip(board_ids, board_profiles))
        rollup_shard_sizes = [
            len(shard) for shard in partition_boards(board_ids, self._rollup_shards)
        ]
        total_snapshots = self._months + 1
        walk = self._temperature_walk_k > 0.0
        temp_rng = self._seeds.stream("ambient-temperature")
        # The shard map is part of the persisted layout, not an
        # execution knob: a resume follows the manifest's map under
        # any max_workers (the executor just runs more specs than
        # workers, or vice versa), so each shard keeps appending to
        # its own directory.
        if resume_state is not None and not legacy:
            shard_boards = [list(boards) for boards in resume_state.shard_boards]
        else:
            shard_boards = partition_boards(board_ids, executor.max_workers)
        checkpointer = (
            CampaignCheckpointer(
                checkpoint_dir,
                self._checkpoint_config(),
                self._result_profile_name(),
                shard_boards,
            )
            if persist
            else None
        )

        with tracer.span(
            "campaign.run",
            devices=len(board_ids),
            months=self._months,
            workers=executor.max_workers,
        ):
            if resume_state is None:
                if persist:
                    checkpointer.reset()
                start_month = 0
                temperature = self._nominal_temperature
                references: Dict[int, np.ndarray] = {}
                snapshots: List[MonthlyEvaluation] = []
                counter_deltas: List[Dict[str, int]] = []
                recorder = CounterDeltaRecorder(metrics)
                logger.info(
                    "campaign started (%s): %d devices, %d months, "
                    "%d measurements/month, %d workers",
                    f"checkpoints at {checkpoint_dir}" if persist else "in memory",
                    len(board_ids),
                    self._months,
                    self._measurements,
                    executor.max_workers,
                )
            else:
                state = resume_state
                if set(state.references) != set(board_ids):
                    raise StorageError(
                        f"checkpoint {state.source} covers boards "
                        f"{sorted(state.references)}, campaign expects {board_ids}"
                    )
                if state.completed_month > self._months:
                    raise StorageError(
                        f"checkpoint {state.source} is for month "
                        f"{state.completed_month} of a {self._months}-month campaign"
                    )
                start_month = state.completed_month + 1
                temperature = state.temperature
                if state.temp_rng_state is not None:
                    restore_rng_state(temp_rng, state.temp_rng_state)
                # Rebuild per-board maps in fleet order: JSON object keys
                # sort as strings, and the artifact's reference map must
                # keep fleet insertion order to stay byte-identical.
                references = {b: state.references[b] for b in board_ids}
                snapshots = list(state.snapshots)
                counter_deltas = [dict(poll) for poll in state.counter_deltas]
                if persist:
                    # Roll the shard streams and parent log back to the
                    # resume month; the re-executed months then append
                    # exactly as the uninterrupted run would have.
                    prepare_shard_resume(checkpoint_dir, state)
                if monitor is not None and monitor.alert_log is not None:
                    log_store, log_name = ArtifactStore.locate(monitor.alert_log)
                    log_store.truncate(log_name)
                with tracer.span("campaign.replay", months=len(snapshots)):
                    for month, snapshot in enumerate(snapshots):
                        fold_counter_deltas(metrics, counter_deltas[month])
                        self._ingest_rollups(snapshot)
                        if monitor is not None:
                            monitor.observe_evaluation(snapshot)
                            monitor.observe_rollups(index=month)
                            monitor.poll_counters(index=month)
                # Pending deltas (the aging block after the last poll)
                # fold in *after* the recorder baselines, so the next
                # poll's recorded delta includes them — exactly as in
                # the uninterrupted run.
                recorder = CounterDeltaRecorder(metrics)
                fold_counter_deltas(metrics, state.pending_deltas)
                logger.info(
                    "campaign resumed from %s at month %d/%d (%d workers)",
                    state.source,
                    start_month,
                    self._months,
                    executor.max_workers,
                )

            shard_profiles = [
                self._profile_spec_fields([profile_of[board] for board in boards])
                for boards in shard_boards
            ]
            # Shards are contiguous runs of the fleet order, so the
            # windows' records concatenate into the fleet's month.
            if [board for boards in shard_boards for board in boards] != board_ids:
                raise StorageError(
                    "the shard map does not split the fleet into contiguous "
                    "runs in fleet order"
                )
            trace_context = tracer.context(phases=profiling_enabled())
            run_token = uuid.uuid4().hex
            try:
                for month in range(start_month, total_snapshots):
                    if walk:
                        temperature += float(temp_rng.normal(0.0, self._temperature_walk_k))
                    snapshot_temp = temperature if walk else None
                    apply_aging = month < self._months
                    # The first window after a resume rebuilds each
                    # shard's resident boards; every later one only
                    # names them (docs/parallel.md, resident slots).
                    restoring = resume_state is not None and month == start_month
                    if restoring:
                        # A legacy keyframe's states; None when each
                        # shard restores from its own chain.
                        inbound_states = resume_state.boards
                    else:
                        inbound_states = day0_states if month == 0 else None
                    with tracer.span("campaign.month", month=month) as month_span:
                        specs = [
                            WindowSpec(
                                shard_index=index,
                                month=month,
                                root_seed=self._seeds.root_seed,
                                measurements=self._measurements,
                                board_ids=tuple(boards),
                                run_token=run_token,
                                statistical=self._statistical,
                                temperature=snapshot_temp,
                                apply_aging=apply_aging,
                                aging_steps_per_month=self._aging_steps,
                                aging_acceleration=self._aging_acceleration,
                                references=(
                                    {board: references[board] for board in boards}
                                    if restoring
                                    else None
                                ),
                                states=(
                                    {board: inbound_states[board] for board in boards}
                                    if inbound_states is not None
                                    else None
                                ),
                                fail_board=(
                                    self._fail_board
                                    if self._fail_board in boards
                                    else None
                                ),
                                trace=trace_context,
                                shard_store=(
                                    ShardStoreSpec(
                                        root=shard_root(checkpoint_dir, index),
                                        shard_index=index,
                                        keyframe_every=self._keyframe_every,
                                        months=self._months,
                                        # Only a restoring worker replays,
                                        # at the nominal temperature
                                        # (None) unless the walk is on.
                                        temperatures=(
                                            tuple(
                                                t if walk else None
                                                for t in resume_state.temperatures
                                            )
                                            if restoring
                                            else ()
                                        ),
                                    )
                                    if persist
                                    else None
                                ),
                                **shard_profiles[index],
                            )
                            for index, boards in enumerate(shard_boards)
                        ]
                        results = executor.run_tasks(run_board_window, specs)
                        if len(results) != len(specs):
                            raise CampaignExecutionError(
                                f"month-{month} dispatch of {len(specs)} windows "
                                f"returned {len(results)} results"
                            )
                        for spec, result in zip(specs, results):
                            check_window_result(spec, result)
                        self._graft_worker_spans(month_span, results)
                        self._merge_worker_phases(results)
                        for result in results:
                            references.update(result.references)
                        eval_deltas, aging_deltas = self._month_counter_deltas(
                            month, len(board_ids)
                        )
                        fold_counter_deltas(metrics, eval_deltas)
                        snapshots.append(
                            assemble_evaluation(
                                month,
                                self._measurements,
                                [result.rows for result in results],
                            )
                        )
                        self._count_labeled_powerups(metrics, month, rollup_shard_sizes)
                        snapshots_done.inc()
                        self._ingest_rollups(snapshots[-1])
                        self._ingest_worker_resources(
                            result.resources for result in results
                        )
                        counter_deltas.append(recorder.take())
                        if monitor is not None:
                            with get_profiler().phase(PHASE_MONITOR):
                                monitor.observe_evaluation(snapshots[-1])
                                monitor.observe_rollups(index=month)
                                monitor.poll_counters(index=month)
                        get_flight_recorder().record(
                            "month",
                            month=month,
                            wchd_mean=float(snapshots[-1].wchd.mean()),
                        )
                        fold_counter_deltas(metrics, aging_deltas)
                        if persist:
                            # The fleet's device state and rows are
                            # already on disk, written by the shards.
                            with tracer.span("campaign.checkpoint", month=month):
                                with get_profiler().phase(PHASE_STORE_IO):
                                    checkpointer.save(
                                        month,
                                        temperature,
                                        rng_state_doc(temp_rng) if walk else None,
                                        counter_deltas[-1],
                                        aging_deltas,
                                    )
                    logger.debug(
                        "month %d/%d done (WCHD mean %.4f)",
                        month,
                        self._months,
                        float(snapshots[-1].wchd.mean()),
                    )
                    if progress is not None:
                        progress(month + 1, total_snapshots)
                    if abort_after_month is not None and month >= abort_after_month:
                        raise CampaignInterrupted(
                            f"campaign interrupted after month {month} as requested; "
                            f"resume from {checkpoint_dir}",
                            checkpoint_dir=checkpoint_dir,
                            month=month,
                        )
            except CampaignExecutionError as exc:
                if persist:
                    flight = get_flight_recorder()
                    flight.record("crash", error=str(exc))
                    flight.dump(f"{checkpoint_dir}/flight.json", reason=str(exc))
                raise
            finally:
                # Windows run in this process (one worker) leave their
                # slots here; pool lanes drop theirs with the pool.
                clear_window_cache()
            logger.info("campaign finished: %d snapshots", len(snapshots))

        return CampaignResult(
            profile_name=self._result_profile_name(),
            months=self._months,
            measurements=self._measurements,
            board_ids=board_ids,
            references={board: references[board] for board in board_ids},
            snapshots=snapshots,
        )
