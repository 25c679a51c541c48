"""repro.exec — board-sharded campaign execution, one month at a time.

The paper's study is embarrassingly parallel across its 16 boards:
every board's trajectory (reference read-out, monthly blocks, aging)
draws exclusively from its own ``chip-<id>`` random stream, so the
fleet can be sharded over worker processes and merged back with
**bit-identical** results — the determinism contract the
``tests/exec`` equivalence suite enforces.

Every campaign run, in memory or checkpointed, at any worker count, is
the same month loop: one dispatch of :class:`WindowSpec` orders per
month, each shard's boards advancing one month in the worker that
holds them.

Layers (see ``docs/parallel.md`` for the full design):

* :mod:`repro.exec.plan` — the board partitioner and the profile-field
  normalization of the specs.
* :mod:`repro.exec.windows` — month-granular work orders
  (:class:`WindowSpec` / :func:`run_board_window`) on a resident
  :class:`~repro.sram.fleetkernel.FleetKernel` per shard; results
  carry the month's rows; the driver derives counters and rollups.
* :mod:`repro.exec.pool` — :class:`WindowPool`, the persistent worker
  pool: one pool lifetime per campaign instead of a respawn per month,
  and sticky shard→worker lanes, so each shard's boards stay resident
  in the worker that runs them.
* :mod:`repro.exec.executor` — :class:`SerialExecutor` /
  :class:`ParallelExecutor` behind one surface; plan-order results,
  structured :class:`~repro.errors.CampaignExecutionError` on failure.

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
from repro.exec.plan import partition_boards
from repro.exec.pool import WindowPool
from repro.exec.windows import (
    WindowResult,
    WindowSpec,
    check_window_result,
    clear_window_cache,
    run_board_window,
)

__all__ = [
    "CampaignExecutor",
    "ParallelExecutor",
    "SerialExecutor",
    "WindowPool",
    "WindowResult",
    "WindowSpec",
    "check_window_result",
    "clear_window_cache",
    "executor_for",
    "partition_boards",
    "run_board_window",
]
