"""Batched fleet kernel: a whole fleet's month in a few vectorized ops.

:class:`FleetKernel` is the campaign's one simulation engine (see
``docs/kernel.md``).  Where a single device is one
:class:`~repro.sram.chip.SRAMChip`, the kernel keeps the *whole fleet*
as matrices:

* ``skew``  — ``(boards, cells)`` float64, the per-cell mismatch;
* ``age_seconds`` / ``power_up_count`` — ``(boards,)`` running state;
* one :class:`numpy.random.Generator` per board (the board's
  ``chip-<id>`` stream).

One month of an arbitrary-size fleet is then a handful of array ops:
draw the noise matrix, resolve power-up signs, draw the Binomial
window counts, apply the BTI drift — all shared with
:class:`~repro.sram.array.SRAMArray` through
:func:`~repro.sram.powerup.one_probabilities_from_skew`,
:func:`~repro.sram.powerup.resolve_power_up_states` and
:func:`~repro.sram.aging.drift_direction`, so there is exactly one
implementation of the physics.

**Row blocks.**  Every operation walks the fleet in blocks of rows
(:func:`row_blocks`) holding at most :data:`ROW_BLOCK_CELLS` cells, so
its temporaries (noise, probabilities, drift) stay cache-sized instead
of spanning the whole ``(boards, cells)`` matrix.  Blocking only
regroups elementwise and rowwise work; it changes no value.

**Bit-identity contract.**  Every random draw happens on the board's
own generator, in the board's serial draw order (manufacture → day-0
reference → monthly block → aging steps → next month), and every
arithmetic step is an elementwise/rowwise operation whose per-board
evaluation order matches :class:`~repro.sram.chip.SRAMChip`'s exactly.
The kernel therefore produces **bit-identical** results — power-up
bits, drift states, metrics, RNG stream positions, exported state
documents — to a fleet of single-device chips, the oracle that
``tests/sram/test_fleetkernel_identity.py`` and
``tests/property/test_kernel_equivalence.py`` hold it to.
"""

from __future__ import annotations

import logging
import math
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.physics.constants import SECONDS_PER_MONTH
from repro.rng import SeedHierarchy
from repro.sram.aging import AgingSimulator, DataPolicy, drift_direction
from repro.sram.powerup import one_probabilities_from_skew, resolve_power_up_states
from repro.sram.profiles import ATMEGA32U4, DeviceProfile
from repro.telemetry.profiling import PHASE_NOISE_DRAW, PHASE_POWERUP
from repro.telemetry.runtime import get_profiler

logger = logging.getLogger(__name__)

#: Cell budget of one row block: one paper board (20,480 cells) per
#: block, 32 boards of 1,024 cells.  A block's float64 temporaries then
#: stay at ~256 KiB, inside the core's cache.
ROW_BLOCK_CELLS = 1 << 15


def row_blocks(rows: int, cells: int) -> Iterator[slice]:
    """Consecutive row slices covering ``rows`` rows of ``cells`` cells.

    Each slice spans at most :data:`ROW_BLOCK_CELLS` cells, but always
    at least one row.

    >>> [(s.start, s.stop) for s in row_blocks(5, ROW_BLOCK_CELLS // 2)]
    [(0, 2), (2, 4), (4, 5)]
    """
    step = max(1, ROW_BLOCK_CELLS // max(1, cells))
    for start in range(0, rows, step):
        yield slice(start, min(start + step, rows))


class FleetKernel:
    """Batched state and physics of a whole fleet of SRAM devices.

    Build via :meth:`manufacture` (fresh fleet from a seed hierarchy,
    exactly the boards' ``chip-<id>`` streams) or :meth:`from_states`
    (restore from per-board state snapshots in
    :meth:`~repro.sram.array.SRAMArray.export_state` form).
    """

    def __init__(
        self,
        board_ids: Sequence[int],
        profile: DeviceProfile,
        skew_v: np.ndarray,
        rngs: Sequence[np.random.Generator],
        age_seconds: np.ndarray,
        power_up_counts: np.ndarray,
    ):
        ids = [int(b) for b in board_ids]
        if not ids:
            raise ConfigurationError("a fleet kernel needs at least one board")
        if len(set(ids)) != len(ids):
            raise ConfigurationError(f"duplicate board ids in fleet: {ids}")
        if any(b < 0 for b in ids):
            raise ConfigurationError(f"board ids cannot be negative: {ids}")
        expected = (len(ids), profile.cell_count)
        if skew_v.shape != expected:
            raise ConfigurationError(
                f"skew matrix shape {skew_v.shape} != (boards, cells) {expected}"
            )
        if len(rngs) != len(ids):
            raise ConfigurationError("one random stream per board required")
        for name, values in (
            ("age_seconds", age_seconds),
            ("power_up_counts", power_up_counts),
        ):
            if np.shape(values) != (len(ids),):
                raise ConfigurationError(
                    f"{name} shape {np.shape(values)} != (boards,) ({len(ids)},)"
                )
        self._board_ids: Tuple[int, ...] = tuple(ids)
        self._profile = profile
        self._skew_v = skew_v
        self._rngs = list(rngs)
        self._age_seconds = age_seconds
        self._power_up_counts = power_up_counts
        self._noise = profile.noise_model()
        # One-probabilities of the current skew, kept by the statistical
        # measure_block for the next age_months' first step; valid only
        # while the skew is unchanged and only at ``_probs_sigma``.
        # Never exported: a restored kernel simply recomputes them.
        self._probs: Optional[np.ndarray] = None
        self._probs_sigma: Optional[float] = None

    # Construction --------------------------------------------------------

    @classmethod
    def manufacture(
        cls,
        board_ids: Sequence[int],
        profile: DeviceProfile = ATMEGA32U4,
        root_seed: int = 0,
    ) -> "FleetKernel":
        """Manufacture a fresh fleet from the campaign seed hierarchy.

        Per board this replays :class:`~repro.sram.chip.SRAMChip`
        manufacture draw for draw — the chip-mean offset (when the
        profile spreads chips) followed by the per-cell skew draw, both
        on the board's own ``chip-<id>`` stream — so the skew matrix
        rows equal the chips' skew vectors bit for bit.
        """
        seeds = (
            root_seed
            if isinstance(root_seed, SeedHierarchy)
            else SeedHierarchy(int(root_seed))
        )
        ids = [int(b) for b in board_ids]
        cells = profile.cell_count
        skew = np.empty((len(ids), cells), dtype=np.float64)
        rngs: List[np.random.Generator] = []
        for index, board_id in enumerate(ids):
            rng = seeds.stream(f"chip-{board_id}")
            chip_mean_v = profile.skew_mean_v
            if profile.chip_mean_sigma_v > 0.0:
                chip_mean_v += rng.normal(0.0, profile.chip_mean_sigma_v)
            skew[index] = rng.normal(chip_mean_v, profile.skew_sigma_v, size=cells)
            rngs.append(rng)
        return cls(
            ids,
            profile,
            skew,
            rngs,
            np.zeros(len(ids), dtype=np.float64),
            np.zeros(len(ids), dtype=np.int64),
        )

    @classmethod
    def from_states(
        cls,
        board_ids: Sequence[int],
        profile: DeviceProfile,
        states: Dict[int, dict],
    ) -> "FleetKernel":
        """Restore a fleet from per-board state snapshots.

        ``states`` maps each board id to an
        :meth:`~repro.sram.array.SRAMArray.export_state` dictionary
        (the raw form; the checkpoint layer owns the serialized one).
        The restored kernel reproduces every board's future draws bit
        for bit, exactly like restoring single-device chips would.
        """
        ids = [int(b) for b in board_ids]
        cells = profile.cell_count
        skew = np.empty((len(ids), cells), dtype=np.float64)
        age = np.empty(len(ids), dtype=np.float64)
        counts = np.empty(len(ids), dtype=np.int64)
        rngs: List[np.random.Generator] = []
        for index, board_id in enumerate(ids):
            try:
                state = states[board_id]
            except KeyError:
                raise ConfigurationError(
                    f"no state snapshot for board {board_id}"
                ) from None
            skew_v = np.asarray(state["skew_v"], dtype=np.float64)
            if skew_v.shape != (cells,):
                raise ConfigurationError(
                    f"board {board_id} skew shape {skew_v.shape} != ({cells},)"
                )
            skew[index] = skew_v
            age[index] = float(state["age_seconds"])
            counts[index] = int(state["power_up_count"])
            rng = np.random.default_rng(0)
            rng.bit_generator.state = state["rng_state"]
            rngs.append(rng)
        return cls(ids, profile, skew, rngs, age, counts)

    # Introspection -------------------------------------------------------

    @property
    def board_ids(self) -> Tuple[int, ...]:
        """The fleet's board ids, in fleet order."""
        return self._board_ids

    @property
    def board_count(self) -> int:
        """Number of boards in the fleet."""
        return len(self._board_ids)

    @property
    def profile(self) -> DeviceProfile:
        """The fleet's (shared) device profile."""
        return self._profile

    @property
    def cell_count(self) -> int:
        """Cells per board."""
        return int(self._skew_v.shape[1])

    @property
    def skew_v(self) -> np.ndarray:
        """Read-only view of the ``(boards, cells)`` skew matrix."""
        view = self._skew_v.view()
        view.flags.writeable = False
        return view

    @property
    def age_seconds(self) -> np.ndarray:
        """Read-only view of the per-board equivalent nominal age."""
        view = self._age_seconds.view()
        view.flags.writeable = False
        return view

    def _sigma_at(self, temperature_k: Optional[float]) -> float:
        return self._noise.sigma_at(
            self._profile.temperature_k if temperature_k is None else temperature_k
        )

    def _power_up_bits(self, sigma: float) -> np.ndarray:
        """One power-up per board, block by block: ``(boards, read_bits)`` bits.

        The result is a compact array of its own, not a view into a
        ``(boards, cells)`` temporary, so callers that keep rows (the
        day-0 references, monthly first read-outs) hold ``read_bits``
        bytes per board and nothing more.
        """
        cells = self.cell_count
        read_bits = self._profile.read_bits
        bits = np.empty((self.board_count, read_bits), dtype=np.uint8)
        for rows in row_blocks(self.board_count, cells):
            noise = np.empty((rows.stop - rows.start, cells), dtype=np.float64)
            for offset, rng in enumerate(self._rngs[rows]):
                noise[offset] = rng.normal(0.0, sigma, size=cells)
            states = resolve_power_up_states(self._skew_v[rows], noise)
            bits[rows] = states[:, :read_bits]
        return bits

    # Measurement ---------------------------------------------------------

    def read_startup(self, temperature_k: Optional[float] = None) -> np.ndarray:
        """One power-up per board; the fleet's ``(boards, read_bits)`` bits.

        Row ``i`` equals board ``board_ids[i]``'s
        :meth:`~repro.sram.chip.SRAMChip.read_startup` result for the
        same draw position (the day-0 reference when called first).
        """
        sigma = self._sigma_at(temperature_k)
        with get_profiler().phase(PHASE_POWERUP, calls=self.board_count):
            bits = self._power_up_bits(sigma)
        self._power_up_counts += 1
        return bits

    def measure_block(
        self,
        measurements: int,
        temperature_k: Optional[float] = None,
        statistical: bool = True,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """One monthly measurement block for the whole fleet.

        Returns ``(ones_counts, first_readouts)`` — compact ``(boards,
        read_bits)`` int64 and uint8 matrices whose rows equal the
        single-device :func:`~repro.sram.powerup.sample_measurement_block`
        outputs board for board.  The statistical fidelity draws each
        board's first read-out at measurement level and the remaining
        ``measurements - 1`` as one Binomial row (consuming the full
        cell range of the stream, exactly like
        :meth:`~repro.sram.array.SRAMArray.sample_ones_counts`).
        """
        if measurements <= 0:
            raise ConfigurationError(
                f"measurements must be positive, got {measurements}"
            )
        boards = self.board_count
        cells = self.cell_count
        read_bits = self._profile.read_bits
        sigma = self._sigma_at(temperature_k)
        profiler = get_profiler()
        if not statistical:
            # Each board's (measurements, cells) noise is drawn in
            # consecutive row blocks: consecutive draws on one stream
            # equal one big draw, so the bits do not change, and the
            # temporaries stay block-sized instead of measurements x cells.
            counts = np.zeros((boards, read_bits), dtype=np.int64)
            first = np.empty((boards, read_bits), dtype=np.uint8)
            with profiler.phase(PHASE_POWERUP, calls=boards):
                for index, rng in enumerate(self._rngs):
                    skew = self._skew_v[index][np.newaxis, :]
                    for chunk in row_blocks(measurements, cells):
                        noise = rng.normal(
                            0.0, sigma, size=(chunk.stop - chunk.start, cells)
                        )
                        block = resolve_power_up_states(skew, noise)[:, :read_bits]
                        counts[index] += block.sum(axis=0, dtype=np.int64)
                        if chunk.start == 0:
                            first[index] = block[0]
            self._power_up_counts += measurements
            return counts, first
        with profiler.phase(PHASE_POWERUP, calls=boards):
            first = self._power_up_bits(sigma)
        self._power_up_counts += 1
        if measurements == 1:
            return first.astype(np.int64), first
        counts = np.empty((boards, read_bits), dtype=np.int64)
        # Invalid until every block is written at this sigma.
        self._probs_sigma = None
        self._probs = np.empty((boards, cells), dtype=np.float64)
        with profiler.phase(PHASE_NOISE_DRAW, calls=boards):
            for rows in row_blocks(boards, cells):
                probs = self._probs[rows]
                probs[...] = one_probabilities_from_skew(self._skew_v[rows], sigma)
                for offset, rng in enumerate(self._rngs[rows]):
                    index = rows.start + offset
                    window = rng.binomial(measurements - 1, probs[offset])
                    np.add(first[index], window[:read_bits], out=counts[index])
        self._probs_sigma = sigma
        self._power_up_counts += measurements - 1
        return counts, first

    # Aging ---------------------------------------------------------------

    def _step_d_taus(self, equivalent_seconds: float, steps: int) -> np.ndarray:
        """Per-step power-law clock advances, ``(steps, boards)``.

        Computed with :meth:`~repro.sram.aging.AgingSimulator.age_array`'s
        exact expressions — ``linspace`` month boundaries,
        ``t_end**n - t_start**n`` per step.  Fleets whose boards share one age (every campaign path)
        take the single-``linspace`` fast path; mixed-age fleets fall
        back to per-board boundaries, still bit-equal to aging each
        board's array on its own.
        """
        n = self._profile.bti_time_exponent
        ages = self._age_seconds
        out = np.empty((steps, self.board_count), dtype=np.float64)

        def fill(column, age_seconds: float) -> None:
            start_months = age_seconds / SECONDS_PER_MONTH
            end_months = (age_seconds + equivalent_seconds) / SECONDS_PER_MONTH
            boundaries = np.linspace(start_months, end_months, steps + 1)
            for step, (t_start, t_end) in enumerate(
                zip(boundaries[:-1], boundaries[1:])
            ):
                out[step, column] = t_end**n - t_start**n

        if np.all(ages == ages[0]):
            fill(slice(None), float(ages[0]))
        else:
            for index in range(self.board_count):
                fill(index, float(ages[index]))
        return out

    def age_months(
        self,
        months: float,
        steps: int = 1,
        data_policy: DataPolicy = DataPolicy.POWER_UP,
        temperature_k: Optional[float] = None,
        voltage_v: Optional[float] = None,
        duty: Optional[float] = None,
    ) -> None:
        """Age the whole fleet by ``months`` of (shared) stress.

        Mirrors :meth:`~repro.sram.aging.AgingSimulator.age_array` —
        same stress-to-clock conversion
        (:meth:`~repro.sram.aging.AgingSimulator.equivalent_nominal_seconds`),
        same per-step drift expression, same per-board dispersion draw
        order — with the per-board loop collapsed to matrix arithmetic.

        When the last :meth:`measure_block` left one-probabilities of
        this very skew at the aging sigma, step 0 reuses them instead of
        evaluating ``Phi(skew / sigma)`` again; any later step, or any
        other sigma, recomputes.  Either way the values are the same.
        """
        if not math.isfinite(months) or months < 0:
            raise ConfigurationError(
                f"months must be finite and non-negative, got {months}"
            )
        if steps <= 0:
            raise ConfigurationError(f"steps must be positive, got {steps}")
        seconds = months * SECONDS_PER_MONTH
        if seconds == 0:
            return
        simulator = AgingSimulator(self._profile)
        equivalent_seconds = simulator.equivalent_nominal_seconds(
            seconds, temperature_k, voltage_v, duty
        )
        amplitude = self._profile.bti_amplitude_v
        dispersion = self._profile.bti_dispersion_v
        sigma = self._sigma_at(None)
        needs_probs = data_policy in (DataPolicy.POWER_UP, DataPolicy.INVERTED)
        measured = self._probs if needs_probs and self._probs_sigma == sigma else None
        # The skew is about to move: the kept probabilities stop being
        # valid, and the local reference is all step 0 still needs.
        self._probs = None
        self._probs_sigma = None
        cells = self.cell_count
        # No profiler phase here: call sites wrap aging in PHASE_AGING,
        # exactly like the single-device simulator's call sites do.
        d_taus = self._step_d_taus(equivalent_seconds, steps)
        for rows in row_blocks(self.board_count, cells):
            # A view: the block's skew is updated in place, step by step.
            skew = self._skew_v[rows]
            rngs = self._rngs[rows]
            xi = np.empty_like(skew) if dispersion > 0.0 else None
            for step, d_tau in enumerate(d_taus[:, rows]):
                if not needs_probs:
                    probs = None
                elif step == 0 and measured is not None:
                    probs = measured[rows]
                else:
                    probs = one_probabilities_from_skew(skew, sigma)
                direction = drift_direction(data_policy, probs, skew.shape)
                drift = direction * amplitude * d_tau[:, np.newaxis]
                if xi is not None:
                    for offset, rng in enumerate(rngs):
                        rng.standard_normal(out=xi[offset])
                    xi *= (dispersion * np.sqrt(d_tau))[:, np.newaxis]
                    drift += xi
                skew += drift
        self._age_seconds = self._age_seconds + equivalent_seconds

    # Checkpoint support --------------------------------------------------

    def export_states(self) -> Dict[int, dict]:
        """Per-board state snapshots, board id → raw state dictionary.

        Each value equals the corresponding single-device array's
        :meth:`~repro.sram.array.SRAMArray.export_state` output for the
        same draw position, so a board's state serializes to the same
        bytes whether it lived in a kernel or in an
        :class:`~repro.sram.chip.SRAMChip`.
        """
        return {
            board_id: {
                "rng_state": self._rngs[index].bit_generator.state,
                "skew_v": np.array(self._skew_v[index], dtype=np.float64, copy=True),
                "age_seconds": float(self._age_seconds[index]),
                "power_up_count": int(self._power_up_counts[index]),
            }
            for index, board_id in enumerate(self._board_ids)
        }

    def __repr__(self) -> str:
        return (
            f"FleetKernel({self.board_count} boards x {self.cell_count} cells, "
            f"{self._profile.name})"
        )


class CohortFleetKernel:
    """A heterogeneous fleet as profile-homogeneous sub-kernels.

    Mixed fleets (``StudyConfig.population``) cannot live in one
    ``(boards, cells)`` matrix — cell counts and physics parameters
    differ per board.  This kernel groups boards sharing an identical
    :class:`~repro.sram.profiles.DeviceProfile` into one
    :class:`FleetKernel` *cohort* each (first-appearance order,
    fleet order preserved inside a cohort) and presents the same
    interface as a single kernel: measurement results are gathered
    back into fleet order, so :func:`~repro.analysis.monthly.evaluate_fleet`
    and the exec layer cannot tell the difference.

    Because every random draw rides the board's own ``chip-<id>``
    stream, cohort iteration order has no effect on any board's bits —
    results stay byte-identical to simulating each board on its own
    (and to any other cohort grouping).

    All cohorts must share ``read_bits``: the monthly metrics compare
    equal-length readouts (:class:`~repro.sram.population.PopulationSpec`
    enforces the same rule at spec level).
    """

    def __init__(self, cohorts: Sequence[FleetKernel]):
        if not cohorts:
            raise ConfigurationError("a cohort kernel needs at least one cohort")
        read_bits = {cohort.profile.read_bits for cohort in cohorts}
        if len(read_bits) > 1:
            raise ConfigurationError(
                f"cohorts must share read_bits, got {sorted(read_bits)}"
            )
        all_ids: List[int] = []
        for cohort in cohorts:
            all_ids.extend(cohort.board_ids)
        if len(set(all_ids)) != len(all_ids):
            raise ConfigurationError(f"duplicate board ids across cohorts: {all_ids}")
        self._cohorts = list(cohorts)
        # Fleet order = ascending board id (campaign order); remember
        # each fleet position's (cohort, row) for the result gather.
        self._board_ids: Tuple[int, ...] = tuple(sorted(all_ids))
        locate = {
            board_id: (c, r)
            for c, cohort in enumerate(cohorts)
            for r, board_id in enumerate(cohort.board_ids)
        }
        self._gather: List[Tuple[int, int]] = [
            locate[board_id] for board_id in self._board_ids
        ]
        # One fleet-position index vector per cohort: the result gather
        # scatters each cohort's whole (rows, cells) block with a single
        # fancy-index assignment instead of copying row by row, which
        # dominated mixed-fleet wall time on large fleets.
        position = {board_id: i for i, board_id in enumerate(self._board_ids)}
        self._scatter: List[np.ndarray] = [
            np.asarray(
                [position[board_id] for board_id in cohort.board_ids],
                dtype=np.intp,
            )
            for cohort in cohorts
        ]
        self._read_bits = read_bits.pop()

    @classmethod
    def manufacture(
        cls,
        board_ids: Sequence[int],
        profiles: Sequence[DeviceProfile],
        root_seed: int = 0,
    ) -> "CohortFleetKernel":
        """Manufacture a mixed fleet; ``profiles[i]`` is board ``i``'s profile."""
        groups = _group_by_profile(board_ids, profiles)
        return cls(
            [
                FleetKernel.manufacture(ids, profile, root_seed=root_seed)
                for profile, ids in groups
            ]
        )

    @classmethod
    def from_states(
        cls,
        board_ids: Sequence[int],
        profiles: Sequence[DeviceProfile],
        states: Dict[int, dict],
    ) -> "CohortFleetKernel":
        """Restore a mixed fleet from per-board state snapshots."""
        groups = _group_by_profile(board_ids, profiles)
        return cls(
            [
                FleetKernel.from_states(
                    ids, profile, {b: states[b] for b in ids if b in states}
                )
                for profile, ids in groups
            ]
        )

    # Introspection -------------------------------------------------------

    @property
    def board_ids(self) -> Tuple[int, ...]:
        """The fleet's board ids, in fleet (ascending-id) order."""
        return self._board_ids

    @property
    def board_count(self) -> int:
        return len(self._board_ids)

    @property
    def cohorts(self) -> Tuple[FleetKernel, ...]:
        """The homogeneous sub-kernels, in first-appearance order."""
        return tuple(self._cohorts)

    @property
    def profiles(self) -> Tuple[DeviceProfile, ...]:
        """Per-board profiles, aligned with :attr:`board_ids`."""
        return tuple(
            self._cohorts[c].profile for c, _ in self._gather
        )

    def _gathered(self, parts: List[np.ndarray], dtype) -> np.ndarray:
        out = np.empty((self.board_count, self._read_bits), dtype=dtype)
        for positions, part in zip(self._scatter, parts):
            out[positions] = part
        return out

    # Measurement ---------------------------------------------------------

    def read_startup(self, temperature_k: Optional[float] = None) -> np.ndarray:
        """One power-up per board, gathered to fleet order.

        With ``temperature_k=None`` each cohort reads at its own
        profile's nominal temperature.
        """
        parts = [cohort.read_startup(temperature_k) for cohort in self._cohorts]
        return self._gathered(parts, parts[0].dtype)

    def measure_block(
        self,
        measurements: int,
        temperature_k: Optional[float] = None,
        statistical: bool = True,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """One monthly block per board; ``(counts, first)`` in fleet order."""
        counts_parts: List[np.ndarray] = []
        first_parts: List[np.ndarray] = []
        for cohort in self._cohorts:
            counts, first = cohort.measure_block(
                measurements, temperature_k=temperature_k, statistical=statistical
            )
            counts_parts.append(counts)
            first_parts.append(first)
        return (
            self._gathered(counts_parts, np.int64),
            self._gathered(first_parts, np.uint8),
        )

    # Aging ---------------------------------------------------------------

    def age_months(
        self,
        months: float,
        steps: int = 1,
        data_policy: DataPolicy = DataPolicy.POWER_UP,
        temperature_k: Optional[float] = None,
        voltage_v: Optional[float] = None,
        duty: Optional[float] = None,
    ) -> None:
        """Age every cohort; each applies its own profile's stress model."""
        for cohort in self._cohorts:
            cohort.age_months(
                months,
                steps=steps,
                data_policy=data_policy,
                temperature_k=temperature_k,
                voltage_v=voltage_v,
                duty=duty,
            )

    # Checkpoint support --------------------------------------------------

    def export_states(self) -> Dict[int, dict]:
        """Per-board state snapshots (all cohorts merged)."""
        states: Dict[int, dict] = {}
        for cohort in self._cohorts:
            states.update(cohort.export_states())
        return states

    def __repr__(self) -> str:
        shape = ", ".join(
            f"{cohort.board_count}x{cohort.cell_count}:{cohort.profile.name}"
            for cohort in self._cohorts
        )
        return f"CohortFleetKernel({shape})"


def _group_by_profile(
    board_ids: Sequence[int], profiles: Sequence[DeviceProfile]
) -> List[Tuple[DeviceProfile, List[int]]]:
    """Group boards by identical profile, first-appearance cohort order."""
    ids = [int(b) for b in board_ids]
    if len(profiles) != len(ids):
        raise ConfigurationError(
            f"need one profile per board: {len(ids)} boards, "
            f"{len(profiles)} profiles"
        )
    groups: Dict[DeviceProfile, List[int]] = {}
    order: List[DeviceProfile] = []
    for board_id, profile in zip(ids, profiles):
        if profile not in groups:
            groups[profile] = []
            order.append(profile)
        groups[profile].append(board_id)
    return [(profile, groups[profile]) for profile in order]


def build_fleet_kernel(
    board_ids: Sequence[int],
    profiles: Sequence[DeviceProfile],
    root_seed: int = 0,
    states: Optional[Dict[int, dict]] = None,
):
    """Build the cheapest kernel for a fleet's profile assignment.

    A homogeneous fleet (every board the *same* profile object value)
    gets the plain :class:`FleetKernel` — exactly the pre-population
    code path, preserving byte-identity for ``population=None`` runs —
    and a mixed fleet gets a :class:`CohortFleetKernel`.  With
    ``states`` the fleet is restored instead of manufactured.
    """
    if not profiles:
        raise ConfigurationError("need at least one profile")
    distinct = len(set(profiles))
    if distinct == 1:
        if states is not None:
            return FleetKernel.from_states(board_ids, profiles[0], states)
        return FleetKernel.manufacture(board_ids, profiles[0], root_seed=root_seed)
    if states is not None:
        return CohortFleetKernel.from_states(board_ids, profiles, states)
    return CohortFleetKernel.manufacture(board_ids, profiles, root_seed=root_seed)
