"""Shard planning: which boards run in which worker.

The campaign's unit of work is one *board trajectory* — a device's
day-0 reference read-out followed by every monthly block and aging
step.  Boards never share random streams (each draws from its own
``chip-<id>`` stream of the :class:`~repro.rng.SeedHierarchy`), so any
partition of the fleet over workers reproduces the serial run exactly;
the planner only decides load balance, never results.

:class:`ShardSpec` is the complete, picklable description of one
worker's assignment.  It deliberately carries *values* (the root seed,
the profile, the pre-drawn ambient temperatures) rather than live
objects, so it survives the ``spawn`` start method on every platform.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.sram.profiles import DeviceProfile
from repro.telemetry.tracing import TraceContext


@dataclass(frozen=True)
class ShardSpec:
    """One worker's complete, self-contained work order.

    Parameters
    ----------
    shard_index:
        Position of this shard in the plan (0-based); carried through
        to :class:`~repro.exec.worker.ShardResult` and error reports.
    root_seed:
        Root seed of the campaign's :class:`~repro.rng.SeedHierarchy`;
        the worker rebuilds the hierarchy and derives exactly the
        per-board streams the serial run would have used.
    board_ids:
        The boards this worker simulates, each end to end.
    months:
        Aging duration; the worker produces ``months + 1`` monthly
        metric rows per board.
    measurements:
        Monthly block size.
    profile:
        Device profile shared by every board of the shard (a frozen
        dataclass, pickled by value).  Homogeneous shorthand: when set,
        ``profiles``/``profile_index`` are derived from it.  Exactly
        one of ``profile`` / ``profiles`` must be given.
    profiles:
        Interned table of the *distinct* profiles this shard's boards
        use — each :class:`~repro.sram.profiles.DeviceProfile` pickles
        once no matter how many boards share it, keeping spawn payloads
        sublinear in fleet size (``tests/exec/test_spawn_payload.py``).
    profile_index:
        Per-board indices into ``profiles``, aligned with
        ``board_ids``.
    statistical:
        Monthly-block simulation fidelity.
    temperatures:
        Per-month ambient measurement temperature, pre-drawn by the
        parent from the shared ``ambient-temperature`` stream
        (``None`` entries mean profile-nominal).  Length ``months + 1``.
    aging_steps_per_month:
        Drift-integration sub-steps per month.
    aging_acceleration:
        Equivalent field months aged per calendar month.
    fail_board:
        Fault-injection hook: the worker raises before simulating
        any of its boards, naming this one.  Exercised by the
        crash-robustness suite and available for chaos drills; leave
        ``None`` in production.
    rollup_shards:
        Logical rollup-shard count of the whole fleet (``0`` disables
        worker-side rollups).  This partition is deliberately
        independent of how many executor workers run, so shard-scoped
        rollup series are identical across worker counts.
    fleet_size:
        Total board count of the campaign (needed to place this
        shard's boards in the fleet-wide rollup partition).
    trace:
        Observability context (``None`` when neither tracing nor phase
        profiling is live — the spec then pickles exactly as before).
        When :attr:`~repro.telemetry.tracing.TraceContext.spans` is
        set the worker records per-board spans on a private tracer and
        ships them back; :attr:`~repro.telemetry.tracing.TraceContext.phases`
        likewise for hot-path phase timings.
    """

    shard_index: int
    root_seed: int
    board_ids: Tuple[int, ...]
    months: int
    measurements: int
    profile: Optional[DeviceProfile] = field(default=None, repr=False)
    profiles: Tuple[DeviceProfile, ...] = field(default=(), repr=False)
    profile_index: Tuple[int, ...] = ()
    statistical: bool = True
    temperatures: Tuple[Optional[float], ...] = ()
    aging_steps_per_month: int = 2
    aging_acceleration: float = 1.0
    fail_board: Optional[int] = None
    rollup_shards: int = 0
    fleet_size: int = 0
    trace: Optional[TraceContext] = None

    def __post_init__(self) -> None:
        if not self.board_ids:
            raise ConfigurationError("a shard needs at least one board")
        if len(self.temperatures) != self.months + 1:
            raise ConfigurationError(
                f"expected {self.months + 1} per-month temperatures, "
                f"got {len(self.temperatures)}"
            )
        normalize_profile_fields(self, len(self.board_ids))

    def profile_for_position(self, position: int) -> DeviceProfile:
        """The profile of the board at ``board_ids[position]``."""
        return self.profiles[self.profile_index[position]]

    @property
    def board_profiles(self) -> Tuple[DeviceProfile, ...]:
        """Per-board profiles, aligned with ``board_ids``."""
        return tuple(self.profiles[i] for i in self.profile_index)

    @property
    def homogeneous(self) -> bool:
        """True when every board of the shard shares one profile."""
        return len(self.profiles) == 1


def normalize_profile_fields(spec, board_count: int) -> None:
    """Reconcile a spec's ``profile`` / ``profiles`` / ``profile_index``.

    Shared by :class:`ShardSpec` and
    :class:`~repro.exec.windows.WindowSpec` ``__post_init__``: the
    homogeneous shorthand (``profile=...``) expands to a one-entry
    table, an explicit table is validated against ``board_count``, and
    a homogeneous table back-fills ``profile`` so existing call sites
    reading ``spec.profile`` keep working.  Mutates via
    ``object.__setattr__`` (the specs are frozen dataclasses).
    """
    if spec.profile is not None and spec.profiles:
        # A normalized homogeneous spec round-trips through
        # dataclasses.replace with both fields set; accept the
        # consistent case and re-expand the shorthand below.
        if tuple(spec.profiles) != (spec.profile,):
            raise ConfigurationError(
                "pass either profile (homogeneous) or profiles/profile_index, "
                "not both"
            )
        object.__setattr__(spec, "profiles", ())
    if spec.profile is not None:
        object.__setattr__(spec, "profiles", (spec.profile,))
        object.__setattr__(spec, "profile_index", (0,) * board_count)
        return
    if not spec.profiles:
        raise ConfigurationError("a spec needs a profile or a profiles table")
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
    if len(spec.profiles) == 1:
        object.__setattr__(spec, "profile", spec.profiles[0])


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


def rollup_shard_of(position: int, board_count: int, shard_count: int) -> int:
    """The logical rollup shard of the board at fleet ``position``.

    Closed-form inverse of :func:`partition_boards` over
    ``range(board_count)`` — O(1), so workers map boards to rollup
    shards without materializing the partition:

    >>> shards = partition_boards(range(7), 3)
    >>> [rollup_shard_of(b, 7, 3) for b in range(7)]
    [0, 0, 0, 1, 1, 2, 2]
    >>> shards
    [(0, 1, 2), (3, 4), (5, 6)]
    """
    if not 0 <= position < board_count:
        raise ConfigurationError(
            f"board position {position} outside fleet of {board_count}"
        )
    count = min(shard_count, board_count)
    if count < 1:
        raise ConfigurationError(f"shard_count must be >= 1, got {shard_count}")
    base, extra = divmod(board_count, count)
    pivot = extra * (base + 1)
    if position < pivot:
        return position // (base + 1)
    return extra + (position - pivot) // base
