"""Shard planning: which boards run in which worker.

A shard's boards advance together, one month window at a time (see
:mod:`repro.exec.windows`).  Boards never share random streams (each
draws from its own ``chip-<id>`` stream of the
:class:`~repro.rng.SeedHierarchy`), so any partition of the fleet over
workers reproduces the one-worker run exactly; the planner only
decides load balance, never results.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError


def normalize_profile_fields(spec, board_count: int) -> None:
    """Validate a spec's ``profiles`` / ``profile_index`` table.

    Called by :class:`~repro.exec.windows.WindowSpec` ``__post_init__``:
    the table is stored as tuples and validated against
    ``board_count``.  Mutates via ``object.__setattr__`` (the spec is a
    frozen dataclass).
    """
    if not spec.profiles:
        raise ConfigurationError("a spec needs a profiles table")
    object.__setattr__(spec, "profiles", tuple(spec.profiles))
    object.__setattr__(spec, "profile_index", tuple(int(i) for i in spec.profile_index))
    if len(spec.profile_index) != board_count:
        raise ConfigurationError(
            f"profile_index must align with the {board_count} board(s), "
            f"got {len(spec.profile_index)} entries"
        )
    if spec.profile_index and not all(
        0 <= i < len(spec.profiles) for i in spec.profile_index
    ):
        raise ConfigurationError(
            f"profile_index entries must point into the {len(spec.profiles)}-"
            "entry profiles table"
        )


def partition_boards(
    board_ids: Sequence[int], shard_count: int
) -> List[Tuple[int, ...]]:
    """Split ``board_ids`` into at most ``shard_count`` contiguous runs.

    Balanced like :func:`numpy.array_split`: the first
    ``len(board_ids) % shard_count`` shards get one extra board.  Order
    within and across shards follows the fleet order, so merging shard
    results back into fleet order is a plain concatenation.

    >>> partition_boards(range(5), 2)
    [(0, 1, 2), (3, 4)]
    >>> partition_boards(range(2), 4)
    [(0,), (1,)]
    """
    if shard_count < 1:
        raise ConfigurationError(f"shard_count must be >= 1, got {shard_count}")
    boards = [int(b) for b in board_ids]
    if not boards:
        raise ConfigurationError("cannot partition an empty fleet")
    count = min(shard_count, len(boards))
    base, extra = divmod(len(boards), count)
    shards: List[Tuple[int, ...]] = []
    start = 0
    for index in range(count):
        size = base + (1 if index < extra else 0)
        shards.append(tuple(boards[start : start + size]))
        start += size
    return shards


def rollup_shards_of(positions, board_count: int, shard_count: int) -> np.ndarray:
    """The logical rollup shard of every fleet position in ``positions``.

    Closed-form inverse of :func:`partition_boards` over
    ``range(board_count)``, so workers map boards to rollup shards
    without materializing the partition:

    >>> partition_boards(range(7), 3)
    [(0, 1, 2), (3, 4), (5, 6)]
    >>> rollup_shards_of(range(7), 7, 3).tolist()
    [0, 0, 0, 1, 1, 2, 2]
    """
    positions = np.asarray(positions, dtype=np.int64)
    if positions.size and not (
        0 <= int(positions.min()) and int(positions.max()) < board_count
    ):
        raise ConfigurationError(
            f"board positions {int(positions.min())}..{int(positions.max())} "
            f"outside fleet of {board_count}"
        )
    count = min(shard_count, board_count)
    if count < 1:
        raise ConfigurationError(f"shard_count must be >= 1, got {shard_count}")
    base, extra = divmod(board_count, count)
    pivot = extra * (base + 1)
    return np.where(
        positions < pivot,
        positions // (base + 1),
        extra + (positions - pivot) // base,
    )
