"""repro.exec — board-sharded parallel campaign execution.

The paper's study is embarrassingly parallel across its 16 boards:
every board's trajectory (reference read-out, monthly blocks, aging)
draws exclusively from its own ``chip-<id>`` random stream, so the
fleet can be sharded over worker processes and merged back with
**bit-identical** results — the determinism contract the
``tests/exec`` equivalence suite enforces.

Layers (see ``docs/parallel.md`` for the full design):

* :mod:`repro.exec.plan` — :class:`ShardSpec` work orders and the
  board partitioner.
* :mod:`repro.exec.worker` — the ``spawn``-safe shard worker: the
  shard's boards on one :class:`~repro.sram.fleetkernel.FleetKernel`;
  returns trajectories plus per-month telemetry counter deltas.
* :mod:`repro.exec.windows` — month-granular work orders for the
  checkpointed path (:class:`WindowSpec` / :func:`run_board_window`);
  the driver regains control after every month to cut a checkpoint.
* :mod:`repro.exec.executor` — :class:`SerialExecutor` /
  :class:`ParallelExecutor` behind one surface; plan-order results,
  structured :class:`~repro.errors.CampaignExecutionError` on failure.
* :mod:`repro.exec.pool` — :class:`WindowPool`, the persistent worker
  pool of the checkpointed path: one pool lifetime per campaign
  instead of a respawn per month, enabling the workers' warm fleet
  cache.
* :mod:`repro.exec.merge` — coverage-checked re-keying of shard
  results into fleet order.

Entry points: :class:`~repro.analysis.campaign.LongTermCampaign` and
:class:`~repro.core.assessment.LongTermAssessment` accept
``run(executor=...)``, :class:`~repro.core.config.StudyConfig` grows
``max_workers``, and the CLI exposes ``--workers``.
"""

from repro.exec.executor import (
    CampaignExecutor,
    ParallelExecutor,
    SerialExecutor,
    executor_for,
)
from repro.exec.merge import MergedShards, collate_shard_results
from repro.exec.plan import ShardSpec, partition_boards
from repro.exec.pool import WindowPool
from repro.exec.windows import (
    BoardWindowState,
    WindowResult,
    WindowSpec,
    clear_window_cache,
    run_board_window,
    window_cache_stats,
)
from repro.exec.worker import BoardTrajectory, ShardResult, run_board_shard

__all__ = [
    "BoardTrajectory",
    "BoardWindowState",
    "CampaignExecutor",
    "MergedShards",
    "ParallelExecutor",
    "SerialExecutor",
    "ShardResult",
    "ShardSpec",
    "WindowPool",
    "WindowResult",
    "WindowSpec",
    "clear_window_cache",
    "collate_shard_results",
    "executor_for",
    "partition_boards",
    "run_board_shard",
    "run_board_window",
    "window_cache_stats",
]
