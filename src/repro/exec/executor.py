"""Campaign executors: where a month's window specs run.

Two interchangeable strategies behind the one duck-typed surface the
campaign driver dispatches through (``max_workers`` attribute plus
``run_tasks(fn, specs)``):

:class:`SerialExecutor`
    Runs every spec in the calling process, in plan order — the
    campaign's one in-process worker, and the automatic choice at
    ``max_workers=1``.

:class:`ParallelExecutor`
    Runs each dispatch on a one-shot :class:`~repro.exec.pool.WindowPool`
    of worker lanes.  A campaign never dispatches through it
    directly: :meth:`~repro.exec.pool.WindowPool.adopt` swaps it for one
    pool that lives as long as the campaign.

Both return results **in plan order** regardless of completion order,
and both turn any failure into a
:class:`~repro.errors.CampaignExecutionError` naming the shard; no
partial fleet is ever returned.
"""

from __future__ import annotations

from typing import Any, Callable, List, Sequence, Union

from repro.errors import ConfigurationError
from repro.exec.pool import START_METHOD, WindowPool, run_inline

__all__ = [
    "START_METHOD",
    "CampaignExecutor",
    "ParallelExecutor",
    "SerialExecutor",
    "executor_for",
]


class SerialExecutor:
    """Run specs one after another in the calling process."""

    max_workers = 1

    def run_tasks(self, fn: Callable[[Any], Any], specs: Sequence[Any]) -> List[Any]:
        """Apply ``fn`` to every spec sequentially, in plan order.

        Failures are wrapped exactly as a worker lane wraps them (see
        :func:`~repro.exec.pool.run_inline`).
        """
        return run_inline(fn, specs)

    def __repr__(self) -> str:
        return "SerialExecutor()"


class ParallelExecutor:
    """Run specs in worker processes (see :data:`START_METHOD`).

    Parameters
    ----------
    max_workers:
        Number of worker lanes.  The lanes never outnumber the specs
        submitted, so small fleets do not pay for idle workers.
    """

    def __init__(self, max_workers: int):
        if max_workers < 1:
            raise ConfigurationError(f"max_workers must be >= 1, got {max_workers}")
        self.max_workers = int(max_workers)

    def run_tasks(self, fn: Callable[[Any], Any], specs: Sequence[Any]) -> List[Any]:
        """Apply ``fn`` to the specs concurrently; plan-order results.

        Same contract as :meth:`~repro.exec.pool.WindowPool.run_tasks`,
        on lanes started for this call and shut down after it.
        """
        with WindowPool(self.max_workers) as pool:
            return pool._dispatch(fn, specs)

    def __repr__(self) -> str:
        return f"ParallelExecutor(max_workers={self.max_workers})"


CampaignExecutor = Union[SerialExecutor, ParallelExecutor]


def executor_for(max_workers: int) -> CampaignExecutor:
    """Pick the executor for a worker count (1 falls back to serial)."""
    if max_workers < 1:
        raise ConfigurationError(f"max_workers must be >= 1, got {max_workers}")
    if max_workers == 1:
        return SerialExecutor()
    return ParallelExecutor(max_workers)
