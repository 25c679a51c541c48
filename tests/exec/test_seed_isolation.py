"""Seed-isolation regression tests.

The parallel engine is only correct because every board's randomness
is isolated in its own named stream of the
:class:`~repro.rng.SeedHierarchy` (``chip-<id>``, spawn-keyed by a
stable SHA-256 hash).  These tests pin that property at the worker
level: reordering boards, dropping boards, or re-partitioning the
fleet must leave every remaining board's trajectory — reference,
monthly metrics, first read-outs, window after window — exactly
unchanged.  If someone ever
reworks :class:`SeedHierarchy` to derive streams positionally, this
file is what fails.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.analysis.monthly import BoardMonthMetrics
from repro.exec.windows import WindowSpec, clear_window_cache, run_board_window
from repro.rng import SeedHierarchy
from repro.sram.profiles import ATMEGA32U4

SEED = 21
MONTHS = 2
MEASUREMENTS = 60


@dataclass
class Trajectory:
    """One board's reference and monthly rows, window by window."""

    board_id: int
    reference: np.ndarray
    months: list = field(default_factory=list)


def _trajectories(board_ids, shard_index=0):
    """Run one shard's windows for every month, as a one-worker campaign does."""
    clear_window_cache()
    try:
        trajectories = {}
        for month in range(MONTHS + 1):
            result = run_board_window(
                WindowSpec(
                    shard_index=shard_index,
                    month=month,
                    root_seed=SEED,
                    measurements=MEASUREMENTS,
                    board_ids=tuple(board_ids),
                    run_token="isolation",
                    profiles=(ATMEGA32U4,),
                    profile_index=(0,) * len(board_ids),
                    statistical=True,
                    apply_aging=month < MONTHS,
                )
            )
            for board, reference in result.references.items():
                trajectories[board] = Trajectory(board, reference)
            rows = result.rows
            for index, board in enumerate(rows.board_ids):
                trajectories[board].months.append(
                    BoardMonthMetrics(
                        board,
                        rows.wchd[index],
                        rows.fhw[index],
                        rows.stable_ratio[index],
                        rows.noise_entropy[index],
                        rows.first_readouts[index],
                    )
                )
        return trajectories
    finally:
        clear_window_cache()


def assert_trajectory_equal(a, b) -> None:
    assert a.board_id == b.board_id
    np.testing.assert_array_equal(a.reference, b.reference)
    assert len(a.months) == len(b.months) == MONTHS + 1
    for row_a, row_b in zip(a.months, b.months):
        assert row_a.wchd == row_b.wchd
        assert row_a.fhw == row_b.fhw
        assert row_a.stable_ratio == row_b.stable_ratio
        assert row_a.noise_entropy == row_b.noise_entropy
        np.testing.assert_array_equal(row_a.first_readout, row_b.first_readout)


class TestBoardStreamIsolation:
    def test_execution_order_does_not_matter(self):
        forward = _trajectories([0, 1, 2, 3])
        reversed_ = _trajectories([3, 2, 1, 0])
        for board in range(4):
            assert_trajectory_equal(forward[board], reversed_[board])

    def test_dropping_boards_leaves_the_rest_unchanged(self):
        full = _trajectories([0, 1, 2, 3, 4])
        subset = _trajectories([1, 3])
        for board in (1, 3):
            assert_trajectory_equal(full[board], subset[board])

    def test_single_board_shards_match_the_grouped_shard(self):
        grouped = _trajectories([0, 1, 2])
        for board in range(3):
            alone = _trajectories([board])
            assert_trajectory_equal(grouped[board], alone[board])

    def test_different_shard_index_does_not_perturb_streams(self):
        """Only board identity may select randomness, never placement."""
        shard0 = _trajectories([2], shard_index=0)
        shard5 = _trajectories([2], shard_index=5)
        assert_trajectory_equal(shard0[2], shard5[2])


class TestSpawnKeyStability:
    def test_chip_streams_are_name_keyed_not_order_keyed(self):
        """Requesting streams in any order yields identical sequences."""
        a = SeedHierarchy(SEED)
        b = SeedHierarchy(SEED)
        a.stream("chip-0")  # extra derivations must not shift chip-7
        a.stream("chip-3")
        draws_a = a.stream("chip-7").random(8)
        draws_b = b.stream("chip-7").random(8)
        np.testing.assert_array_equal(draws_a, draws_b)

    def test_rebuilt_hierarchy_reproduces_worker_streams(self):
        """A spawned worker sees the exact streams of the parent."""
        parent = SeedHierarchy(SEED)
        worker_side = SeedHierarchy(parent.root_seed)  # what WindowSpec ships
        np.testing.assert_array_equal(
            parent.stream("chip-11").random(16),
            worker_side.stream("chip-11").random(16),
        )
