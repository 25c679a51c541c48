"""The monthly evaluation protocol (paper Section IV-B).

Each month the paper takes the first 1,000 consecutive measurements
after midnight on the 8th for every board and computes:

* **WCHD** per board against the board's day-0 reference;
* **FHW** per board over the block;
* **stable-cell ratio** and **noise entropy** per board from the
  block's one-probability estimates;
* **BCHD** and **PUF entropy** across boards from the first read-out
  of each board's block.

:func:`evaluate_month` runs that protocol on live chips;
:class:`MonthlyEvaluation` is the resulting snapshot.

The protocol factors cleanly by board: everything except BCHD and PUF
entropy is a per-board quantity, and those two need only each board's
*first read-out*.  :func:`evaluate_fleet` computes a run of boards'
shares as one column record (:class:`FleetMonthMetrics`) and
:func:`assemble_evaluation` concatenates the records (in board order)
into the fleet snapshot — the seam the parallel executor
(:mod:`repro.exec`) uses to run boards in separate worker processes
while producing bit-identical snapshots.  :func:`evaluate_board` on a
live :class:`~repro.sram.chip.SRAMChip` is the single-board oracle the
fleet record is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.io.bitutil import ensure_bit_matrix
from repro.metrics.entropy import noise_min_entropy_from_counts, puf_min_entropy
from repro.metrics.hamming import (
    between_class_hd,
    fractional_hamming_weight_from_counts,
    within_class_hd_from_counts,
)
from repro.metrics.stability import stable_cell_ratio_from_counts
from repro.sram.chip import SRAMChip
from repro.sram.fleetkernel import row_blocks
from repro.sram.powerup import sample_measurement_block
from repro.telemetry.profiling import PHASE_METRICS
from repro.telemetry.runtime import get_profiler


@dataclass(frozen=True)
class MonthlyEvaluation:
    """All quality metrics of one monthly snapshot.

    Per-board arrays are ordered like the campaign's board list.
    """

    month: int
    measurements: int
    board_ids: List[int]
    wchd: np.ndarray
    fhw: np.ndarray
    stable_ratio: np.ndarray
    noise_entropy: np.ndarray
    bchd_pairs: np.ndarray = field(repr=False)
    puf_entropy: float

    def __post_init__(self) -> None:
        boards = len(self.board_ids)
        for name in ("wchd", "fhw", "stable_ratio", "noise_entropy"):
            if getattr(self, name).shape != (boards,):
                raise ConfigurationError(
                    f"{name} must have one value per board ({boards}), "
                    f"got shape {getattr(self, name).shape}"
                )

    @property
    def bchd_mean(self) -> float:
        """Mean pairwise between-class HD of the month."""
        return float(self.bchd_pairs.mean())

    @property
    def bchd_min(self) -> float:
        """Worst-case (lowest) pairwise BCHD of the month."""
        return float(self.bchd_pairs.min())


@dataclass(frozen=True)
class BoardMonthMetrics:
    """One board's share of one monthly snapshot.

    What :func:`evaluate_board` returns for a single live chip: the
    board's per-board quality numbers plus the first read-out of its
    block (the fleet-level BCHD / PUF-entropy input).  Fleets travel as
    one :class:`FleetMonthMetrics` instead (:meth:`FleetMonthMetrics.from_boards`).
    """

    board_id: int
    wchd: float
    fhw: float
    stable_ratio: float
    noise_entropy: float
    first_readout: np.ndarray = field(repr=False)


@dataclass(frozen=True)
class FleetMonthMetrics:
    """One month of a run of boards, column by column.

    Row ``i`` of every field belongs to board ``board_ids[i]``: the four
    per-board metrics are ``(boards,)`` float64 arrays and the first
    read-outs one ``(boards, read_bits)`` uint8 matrix, the fleet-level
    BCHD / PUF-entropy input.  :func:`evaluate_fleet` returns one per
    month window, the window carries it to the campaign driver and the
    shard stream reader decodes one per shard-month;
    :func:`assemble_evaluation` concatenates them in fleet order.  It
    pickles its read-out matrix packed eight bits per byte in one
    :func:`numpy.packbits` call; unpickling restores the same bits.
    """

    board_ids: Tuple[int, ...]
    wchd: np.ndarray
    fhw: np.ndarray
    stable_ratio: np.ndarray
    noise_entropy: np.ndarray
    first_readouts: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        boards = len(self.board_ids)
        for name in ("wchd", "fhw", "stable_ratio", "noise_entropy"):
            if getattr(self, name).shape != (boards,):
                raise ConfigurationError(
                    f"{name} must have one value per board ({boards}), "
                    f"got shape {getattr(self, name).shape}"
                )
        if self.first_readouts.ndim != 2 or len(self.first_readouts) != boards:
            raise ConfigurationError(
                f"first_readouts must be a ({boards}, bits) matrix, "
                f"got shape {self.first_readouts.shape}"
            )

    def __len__(self) -> int:
        return len(self.board_ids)

    def __reduce__(self):
        return (
            _unpickle_fleet_month,
            (
                self.board_ids,
                self.wchd,
                self.fhw,
                self.stable_ratio,
                self.noise_entropy,
                np.packbits(self.first_readouts, axis=1),
                self.first_readouts.shape[1],
            ),
        )

    @classmethod
    def from_boards(cls, boards: Sequence[BoardMonthMetrics]) -> "FleetMonthMetrics":
        """The record of per-board shares, in the given order."""
        return cls(
            board_ids=tuple(board.board_id for board in boards),
            wchd=np.asarray([board.wchd for board in boards], dtype=np.float64),
            fhw=np.asarray([board.fhw for board in boards], dtype=np.float64),
            stable_ratio=np.asarray(
                [board.stable_ratio for board in boards], dtype=np.float64
            ),
            noise_entropy=np.asarray(
                [board.noise_entropy for board in boards], dtype=np.float64
            ),
            first_readouts=ensure_bit_matrix(
                [board.first_readout for board in boards]
            ),
        )

    @classmethod
    def concat(cls, parts: Sequence["FleetMonthMetrics"]) -> "FleetMonthMetrics":
        """The records' rows one after another, in the given order."""
        if not parts:
            raise ConfigurationError("concat needs at least one record")
        if len({part.first_readouts.shape[1] for part in parts}) > 1:
            raise ConfigurationError("all read-outs must have equal length")
        return cls(
            board_ids=tuple(board for part in parts for board in part.board_ids),
            wchd=np.concatenate([part.wchd for part in parts]),
            fhw=np.concatenate([part.fhw for part in parts]),
            stable_ratio=np.concatenate([part.stable_ratio for part in parts]),
            noise_entropy=np.concatenate([part.noise_entropy for part in parts]),
            first_readouts=np.concatenate([part.first_readouts for part in parts]),
        )

    def take(self, order: Sequence[int]) -> "FleetMonthMetrics":
        """The rows at positions ``order``, in that order."""
        index = np.asarray(order, dtype=np.intp)
        return FleetMonthMetrics(
            board_ids=tuple(self.board_ids[i] for i in index.tolist()),
            wchd=self.wchd[index],
            fhw=self.fhw[index],
            stable_ratio=self.stable_ratio[index],
            noise_entropy=self.noise_entropy[index],
            first_readouts=self.first_readouts[index],
        )


def _unpickle_fleet_month(
    board_ids, wchd, fhw, stable_ratio, noise_entropy, packed, bit_count
) -> FleetMonthMetrics:
    """Inverse of :meth:`FleetMonthMetrics.__reduce__`."""
    return FleetMonthMetrics(
        board_ids,
        wchd,
        fhw,
        stable_ratio,
        noise_entropy,
        np.unpackbits(packed, axis=1, count=bit_count),
    )


def reference_matrix(
    references: Mapping[int, np.ndarray], board_ids: Sequence[int], read_bits: int
) -> np.ndarray:
    """The day-0 references of ``board_ids`` as one validated bit matrix.

    Row ``i`` is board ``board_ids[i]``'s reference; every row must be a
    ``read_bits``-long bit vector.  Callers that evaluate the same
    boards month after month validate once and keep the matrix.
    """
    missing = [board for board in board_ids if board not in references]
    if missing:
        raise ConfigurationError(f"no reference read-out for boards {missing}")
    matrix = ensure_bit_matrix([references[board] for board in board_ids])
    if matrix.shape != (len(board_ids), read_bits):
        raise ConfigurationError(
            f"expected {len(board_ids)} references of {read_bits} bits, "
            f"got shape {matrix.shape}"
        )
    return matrix


def evaluate_board(
    chip: SRAMChip,
    reference: np.ndarray,
    measurements: int = 1000,
    statistical: bool = True,
    temperature_k: Optional[float] = None,
) -> BoardMonthMetrics:
    """Run one board's share of the monthly protocol.

    Draws only from ``chip``'s own random stream, so a board evaluated
    alone produces the same numbers as the same board evaluated inside
    a fleet (the property the serial≡parallel equivalence suite pins).
    """
    if measurements < 2:
        raise ConfigurationError(f"measurements must be >= 2, got {measurements}")
    block = sample_measurement_block(
        chip, measurements, temperature_k=temperature_k, statistical=statistical
    )
    with get_profiler().phase(PHASE_METRICS):
        return BoardMonthMetrics(
            board_id=chip.chip_id,
            wchd=within_class_hd_from_counts(block.ones_counts, measurements, reference),
            fhw=fractional_hamming_weight_from_counts(block.ones_counts, measurements),
            stable_ratio=stable_cell_ratio_from_counts(block.ones_counts, measurements),
            noise_entropy=noise_min_entropy_from_counts(block.ones_counts, measurements),
            first_readout=block.first_readout,
        )


def evaluate_fleet(
    kernel,
    references: np.ndarray,
    measurements: int = 1000,
    statistical: bool = True,
    temperature_k: Optional[float] = None,
) -> FleetMonthMetrics:
    """Run the whole fleet's share of the monthly protocol, batched.

    The fleet counterpart of calling :func:`evaluate_board` per board:
    ``kernel`` (a :class:`~repro.sram.fleetkernel.FleetKernel`) draws
    one block for every board, and the four per-board metrics are
    computed as rowwise reductions over the ``(boards, read_bits)``
    count matrix, one row block at a time
    (:func:`~repro.sram.fleetkernel.row_blocks`) so the temporaries
    stay cache-sized.  Each reduction is the *exact* vectorization of
    the single-board metric — ``M.mean(axis=1)`` of a row equals that
    row's ``mean()`` bit for bit, and every elementwise step matches
    the ``*_from_counts`` formula — so row ``i`` of the returned record
    equals :func:`evaluate_board`'s result for board ``i`` exactly (the
    property suite in ``tests/property/test_kernel_equivalence.py``
    pins this).

    ``references`` is the :func:`reference_matrix` of the kernel's
    boards (row ``i`` is board ``kernel.board_ids[i]``'s day-0
    read-out), which a caller evaluating the same boards every month
    validates once and keeps.
    """
    if measurements < 2:
        raise ConfigurationError(f"measurements must be >= 2, got {measurements}")
    counts, first = kernel.measure_block(
        measurements, temperature_k=temperature_k, statistical=statistical
    )
    board_ids = tuple(kernel.board_ids)
    boards, read_bits = counts.shape
    wchd = np.empty(boards)
    fhw = np.empty(boards)
    stable = np.empty(boards)
    noise_entropy = np.empty(boards)
    with get_profiler().phase(PHASE_METRICS, calls=boards):
        if references.shape != (boards, read_bits):
            raise ConfigurationError(
                f"reference matrix of shape {references.shape} for "
                f"{boards} boards of {read_bits} bits"
            )
        if counts.size and (
            int(counts.min()) < 0 or int(counts.max()) > measurements
        ):
            raise ConfigurationError(
                "ones_counts out of range for the measurement count"
            )
        for rows in row_blocks(boards, read_bits):
            block = counts[rows]
            # WCHD: a reference-1 cell disagrees in (m - ones) power-ups,
            # a reference-0 cell in ones — rowwise mean over cells, / m.
            disagreements = np.where(
                references[rows] == 1, measurements - block, block
            )
            wchd[rows] = disagreements.mean(axis=1) / measurements
            fhw[rows] = block.mean(axis=1) / measurements
            stable[rows] = ((block == 0) | (block == measurements)).mean(axis=1)
            probs = block / float(measurements)
            noise_entropy[rows] = (
                -np.log2(np.maximum(probs, 1.0 - probs))
            ).mean(axis=1)
    return FleetMonthMetrics(
        board_ids=board_ids,
        wchd=wchd,
        fhw=fhw,
        stable_ratio=stable,
        noise_entropy=noise_entropy,
        first_readouts=first,
    )


def assemble_evaluation(
    month: int, measurements: int, parts: Sequence[FleetMonthMetrics]
) -> MonthlyEvaluation:
    """Combine the shards' month records into the fleet snapshot.

    ``parts`` must be in fleet order; their rows are concatenated and
    the cross-board metrics (BCHD, PUF entropy) are computed here from
    the one ``(boards, bits)`` first-read-out matrix, exactly as the
    serial protocol does.
    """
    if not parts or not sum(len(part) for part in parts):
        raise ConfigurationError("assemble_evaluation needs at least one board")
    fleet = FleetMonthMetrics.concat(parts)
    if len(fleet) >= 2:
        with get_profiler().phase(PHASE_METRICS):
            bchd = between_class_hd(fleet.first_readouts)
            puf_h = puf_min_entropy(fleet.first_readouts)
    else:
        bchd = np.array([], dtype=float)
        puf_h = float("nan")
    return MonthlyEvaluation(
        month=month,
        measurements=measurements,
        board_ids=list(fleet.board_ids),
        wchd=fleet.wchd,
        fhw=fleet.fhw,
        stable_ratio=fleet.stable_ratio,
        noise_entropy=fleet.noise_entropy,
        bchd_pairs=bchd,
        puf_entropy=puf_h,
    )


def evaluate_month(
    chips: Sequence[SRAMChip],
    references: Dict[int, np.ndarray],
    month: int,
    measurements: int = 1000,
    statistical: bool = True,
    temperature_k: Optional[float] = None,
) -> MonthlyEvaluation:
    """Run the Section IV-B protocol on live chips.

    Parameters
    ----------
    chips:
        The devices under test (their current aging state is used).
    references:
        Day-0 reference read-out per ``chip_id`` (first-ever pattern).
    month:
        Month index recorded in the snapshot.
    measurements:
        Block size (the paper's 1,000 consecutive measurements).
    statistical:
        Use Binomial sufficient statistics (default) or full
        measurement-level simulation.
    temperature_k:
        Ambient override for this month's measurements.
    """
    if not chips:
        raise ConfigurationError("evaluate_month needs at least one chip")
    if measurements < 2:
        raise ConfigurationError(f"measurements must be >= 2, got {measurements}")

    boards = []
    for chip in chips:
        if chip.chip_id not in references:
            raise ConfigurationError(f"no reference read-out for chip {chip.chip_id}")
        boards.append(
            evaluate_board(
                chip,
                references[chip.chip_id],
                measurements=measurements,
                statistical=statistical,
                temperature_k=temperature_k,
            )
        )
    return assemble_evaluation(
        month, measurements, [FleetMonthMetrics.from_boards(boards)]
    )
