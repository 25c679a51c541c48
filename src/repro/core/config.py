"""Study configuration.

:class:`StudyConfig` is the single object that fully determines a
:class:`~repro.core.assessment.LongTermAssessment` run — fleet size,
duration, protocol parameters, fidelity and seed.  Two runs with equal
configs produce identical results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from repro.errors import ConfigurationError
from repro.sram.population import PopulationSpec
from repro.sram.profiles import ATMEGA32U4, DeviceProfile
from repro.store.checkpoint import DEFAULT_KEYFRAME_EVERY, check_keyframe_every


@dataclass(frozen=True)
class StudyConfig:
    """Parameters of one long-term assessment.

    Defaults reproduce the paper's study (16 boards, 24 months, 1,000
    measurements per monthly block).

    Parameters
    ----------
    device_count:
        Fleet size.
    months:
        Aging duration in months; snapshots at every boundary plus
        month 0.
    measurements:
        Monthly block size.
    profile:
        Device profile of the fleet (every board identical).  Ignored
        for board materialization when ``population`` is set, but still
        supplies the temperature-walk starting point's fallback.
    population:
        Optional :class:`~repro.sram.population.PopulationSpec` drawing
        a *heterogeneous* fleet: board ``i``'s profile is a pure
        function of ``(population, seed, i)`` (see
        ``docs/population.md``).  ``None`` (the default) keeps today's
        homogeneous fleet and is the seed-identity escape hatch — a
        config without a population produces bit-identical results to
        releases that predate the field.
    seed:
        Root seed of the run.
    statistical:
        Monthly-block fidelity: Binomial sufficient statistics
        (default) or full per-measurement simulation.
    temperature_walk_k:
        Ambient random-walk amplitude per month (0 disables).
    aging_steps_per_month:
        Drift-integration sub-steps per month.
    aging_acceleration:
        Equivalent field months aged per calendar month (1.0 is the
        paper's nominal testbed; > 1 injects accelerated aging, see
        :class:`repro.physics.acceleration.AccelerationModel`).
    initial_measurements:
        Block size of the Section IV-A initial evaluation.
    max_workers:
        Parallel worker processes for the board-sharded execution
        engine (:mod:`repro.exec`); 1 runs the classic serial loop.
        Results are bit-identical at every worker count, so this is a
        pure wall-clock knob and equal configs still produce equal
        results.
    keyframe_every:
        Full-state keyframe cadence of checkpointed runs (a positive
        ``int``: one keyframe every this many months, payload-free
        delta markers in between — see ``docs/storage.md``).  Like
        ``max_workers``, a pure storage-size knob: results are
        byte-identical at every cadence.
    rollup_shards:
        Logical shard count of the hierarchical rollup layer (see
        ``docs/monitoring.md``); ``None`` lets the campaign pick
        ``min(8, device_count)``.  Independent of ``max_workers``, so
        rollup documents are identical at every worker count.
    fail_board:
        Fault-injection hook: the worker simulating this board raises
        before touching it, crashing the campaign deterministically
        (the CI status-smoke job exercises the flight recorder with
        it).  ``None`` (the default) injects nothing.
    """

    device_count: int = 16
    months: int = 24
    measurements: int = 1000
    profile: DeviceProfile = field(default=ATMEGA32U4)
    population: Optional[PopulationSpec] = None
    seed: int = 0
    statistical: bool = True
    temperature_walk_k: float = 0.0
    aging_steps_per_month: int = 2
    aging_acceleration: float = 1.0
    initial_measurements: int = 1000
    max_workers: int = 1
    keyframe_every: int = DEFAULT_KEYFRAME_EVERY
    rollup_shards: Optional[int] = None
    fail_board: Optional[int] = None

    def __post_init__(self) -> None:
        if self.device_count < 2:
            raise ConfigurationError(
                f"device_count must be >= 2 (uniqueness metrics need pairs), "
                f"got {self.device_count}"
            )
        if self.months < 1:
            raise ConfigurationError(f"months must be >= 1, got {self.months}")
        if self.measurements < 2:
            raise ConfigurationError(f"measurements must be >= 2, got {self.measurements}")
        if self.initial_measurements < 2:
            raise ConfigurationError(
                f"initial_measurements must be >= 2, got {self.initial_measurements}"
            )
        if self.temperature_walk_k < 0:
            raise ConfigurationError(
                f"temperature_walk_k cannot be negative, got {self.temperature_walk_k}"
            )
        if self.aging_steps_per_month < 1:
            raise ConfigurationError(
                f"aging_steps_per_month must be >= 1, got {self.aging_steps_per_month}"
            )
        if not math.isfinite(self.aging_acceleration) or self.aging_acceleration <= 0:
            raise ConfigurationError(
                f"aging_acceleration must be finite and positive, "
                f"got {self.aging_acceleration}"
            )
        if self.max_workers < 1:
            raise ConfigurationError(
                f"max_workers must be >= 1, got {self.max_workers}"
            )
        check_keyframe_every(self.keyframe_every)
        if self.rollup_shards is not None and self.rollup_shards < 1:
            raise ConfigurationError(
                f"rollup_shards must be >= 1, got {self.rollup_shards}"
            )
        if self.fail_board is not None and not (
            0 <= self.fail_board < self.device_count
        ):
            raise ConfigurationError(
                f"fail_board {self.fail_board} outside fleet of "
                f"{self.device_count}"
            )
        if self.population is not None:
            if not isinstance(self.population, PopulationSpec):
                raise ConfigurationError(
                    "population must be a PopulationSpec or None, got "
                    f"{type(self.population).__name__}"
                )
            if self.temperature_walk_k > 0 and self.population.temperature_k is None:
                raise ConfigurationError(
                    "temperature_walk_k needs one fleet-wide starting "
                    "temperature, but the population mixes profiles with "
                    "different temperature_k"
                )
