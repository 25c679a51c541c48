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
*first read-out*.  :func:`evaluate_board` computes one board's share
and :func:`assemble_evaluation` combines the shares (in board order)
into the fleet snapshot — the seam the parallel executor
(:mod:`repro.exec`) uses to run boards in separate worker processes
while producing bit-identical snapshots.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.io.bitutil import (
    ensure_bit_matrix,
    ensure_bits,
    pack_bit_vector,
    unpack_bits,
)
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

    Everything :func:`assemble_evaluation` needs from a single board:
    its per-board quality numbers plus the first read-out of its block
    (the fleet-level BCHD / PUF-entropy input).  The object is a plain
    picklable value so worker processes can ship it back to the
    campaign driver.  It pickles its read-out packed eight bits per
    byte, so a window result crossing the process boundary carries an
    eighth of the read-out bytes; unpickling restores the same bits.
    """

    board_id: int
    wchd: float
    fhw: float
    stable_ratio: float
    noise_entropy: float
    first_readout: np.ndarray = field(repr=False)

    def __reduce__(self):
        return (
            _unpickle_board_row,
            (
                self.board_id,
                self.wchd,
                self.fhw,
                self.stable_ratio,
                self.noise_entropy,
                *pack_bit_vector(self.first_readout),
            ),
        )


def _unpickle_board_row(
    board_id, wchd, fhw, stable_ratio, noise_entropy, packed, bit_count
) -> BoardMonthMetrics:
    """Inverse of :meth:`BoardMonthMetrics.__reduce__`."""
    return BoardMonthMetrics(
        board_id, wchd, fhw, stable_ratio, noise_entropy, unpack_bits(packed, bit_count)
    )


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
    references: Dict[int, np.ndarray],
    measurements: int = 1000,
    statistical: bool = True,
    temperature_k: Optional[float] = None,
) -> List[BoardMonthMetrics]:
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
    the ``*_from_counts`` formula — so the returned rows equal
    :func:`evaluate_board`'s exactly (the property suite in
    ``tests/property/test_kernel_equivalence.py`` pins this).
    """
    if measurements < 2:
        raise ConfigurationError(f"measurements must be >= 2, got {measurements}")
    counts, first = kernel.measure_block(
        measurements, temperature_k=temperature_k, statistical=statistical
    )
    board_ids = kernel.board_ids
    boards, read_bits = counts.shape
    wchd = np.empty(boards)
    fhw = np.empty(boards)
    stable = np.empty(boards)
    noise_entropy = np.empty(boards)
    with get_profiler().phase(PHASE_METRICS, calls=boards):
        if counts.size and (
            int(counts.min()) < 0 or int(counts.max()) > measurements
        ):
            raise ConfigurationError(
                "ones_counts out of range for the measurement count"
            )
        for rows in row_blocks(boards, read_bits):
            block = counts[rows]
            reference_rows = np.stack(
                [
                    ensure_bits(references[board_id], length=read_bits)
                    for board_id in board_ids[rows]
                ]
            )
            # WCHD: a reference-1 cell disagrees in (m - ones) power-ups,
            # a reference-0 cell in ones — rowwise mean over cells, / m.
            disagreements = np.where(
                reference_rows == 1, measurements - block, block
            )
            wchd[rows] = disagreements.mean(axis=1) / measurements
            fhw[rows] = block.mean(axis=1) / measurements
            stable[rows] = ((block == 0) | (block == measurements)).mean(axis=1)
            probs = block / float(measurements)
            noise_entropy[rows] = (
                -np.log2(np.maximum(probs, 1.0 - probs))
            ).mean(axis=1)
        return [
            BoardMonthMetrics(
                board_id=board_id,
                wchd=float(wchd[index]),
                fhw=float(fhw[index]),
                stable_ratio=float(stable[index]),
                noise_entropy=float(noise_entropy[index]),
                first_readout=first[index],
            )
            for index, board_id in enumerate(board_ids)
        ]


def assemble_evaluation(
    month: int, measurements: int, boards: Sequence[BoardMonthMetrics]
) -> MonthlyEvaluation:
    """Combine per-board shares into the fleet snapshot.

    ``boards`` must be in fleet order; the cross-board metrics (BCHD,
    PUF entropy) are computed here from the boards' first read-outs,
    exactly as the serial protocol does, stacked once into one
    ``(boards, bits)`` matrix that both metrics read.
    """
    if not boards:
        raise ConfigurationError("assemble_evaluation needs at least one board")
    if len(boards) >= 2:
        with get_profiler().phase(PHASE_METRICS):
            first_readouts = ensure_bit_matrix(
                [board.first_readout for board in boards]
            )
            bchd = between_class_hd(first_readouts)
            puf_h = puf_min_entropy(first_readouts)
    else:
        bchd = np.array([], dtype=float)
        puf_h = float("nan")
    return MonthlyEvaluation(
        month=month,
        measurements=measurements,
        board_ids=[board.board_id for board in boards],
        wchd=np.asarray([board.wchd for board in boards]),
        fhw=np.asarray([board.fhw for board in boards]),
        stable_ratio=np.asarray([board.stable_ratio for board in boards]),
        noise_entropy=np.asarray([board.noise_entropy for board in boards]),
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
    return assemble_evaluation(month, measurements, boards)
