"""Persistent worker pool for month-windowed campaigns.

:class:`~repro.exec.executor.ParallelExecutor` builds a fresh
``ProcessPoolExecutor`` for every ``run_tasks`` call.  That is the
right shape for the full-trajectory sharded path — one dispatch per
campaign — but the checkpointed month-window driver dispatches once
*per month*, so a 24-month campaign paid 25 rounds of ``spawn``
start-up (interpreter boot + numpy import per worker, the dominant
cost for small fleets).

:class:`WindowPool` keeps one pool alive for the whole campaign.  It
exposes the same duck-typed executor surface (``max_workers`` plus
``run_tasks``), so :meth:`LongTermCampaign.run` can adopt it
transparently, tests can inject it, and the serial≡parallel
byte-identity suite gates it like any other executor.  Keeping workers
alive is also what makes the warm fleet cache in
:mod:`repro.exec.windows` effective: month *m+1*'s window for a shard
usually lands in the process that just computed month *m*'s outbound
state, so the digests match and deserialization is skipped.

The pool defaults to the ``spawn`` start method for the same hermetic
determinism reasons as :data:`repro.exec.executor.START_METHOD`;
``forkserver`` may be selected on platforms that support it (workers
fork from a clean server process — cheaper start-up, still no parent
state inheritance).

Determinism note: task→worker *placement* is scheduler-dependent, but
results are collected in plan order and every window is a pure
function of its spec (the warm cache is digest-gated), so outputs are
byte-identical regardless of placement.
"""

from __future__ import annotations

import logging
import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Callable, List, Optional, Sequence

from repro.errors import CampaignExecutionError, ConfigurationError
from repro.exec.executor import START_METHOD, ParallelExecutor

logger = logging.getLogger(__name__)


class WindowPool:
    """A reusable ``spawn``/``forkserver`` pool with one lifetime.

    Parameters
    ----------
    max_workers:
        Pool size.  Like :class:`~repro.exec.executor.ParallelExecutor`,
        a pool of one runs tasks inline (no subprocess), and the live
        pool never exceeds the widest dispatch seen so far.
    start_method:
        ``"spawn"`` (default, portable) or ``"forkserver"`` (POSIX
        only).  ``"fork"`` is rejected — it inherits parent state and
        would break the hermetic-worker guarantee.
    """

    def __init__(self, max_workers: int, start_method: str = START_METHOD):
        if max_workers < 1:
            raise ConfigurationError(f"max_workers must be >= 1, got {max_workers}")
        if start_method not in ("spawn", "forkserver"):
            raise ConfigurationError(
                f"start_method must be 'spawn' or 'forkserver', got {start_method!r}"
            )
        if start_method not in multiprocessing.get_all_start_methods():
            raise ConfigurationError(
                f"start method {start_method!r} is not available on this platform"
            )
        self.max_workers = int(max_workers)
        self.start_method = start_method
        #: How many times a ProcessPoolExecutor was constructed.  The
        #: pool-reuse regression test asserts this stays at 1 across a
        #: whole multi-month campaign.
        self.spawn_count = 0
        self._pool: Optional[ProcessPoolExecutor] = None
        self._pool_size = 0

    @classmethod
    def adopt(cls, executor: Any) -> "WindowPool | Any":
        """Wrap an executor for the month-window loop.

        A :class:`WindowPool` (caller-owned) and any single-worker
        executor pass through unchanged; a multi-worker executor is
        wrapped in a fresh pool the caller must :meth:`close`.
        """
        if isinstance(executor, cls) or executor.max_workers == 1:
            return executor
        return cls(executor.max_workers)

    def _ensure_pool(self, workers: int) -> ProcessPoolExecutor:
        """The live pool, (re)built only when absent or too narrow."""
        if self._pool is None or self._pool_size < workers:
            if self._pool is not None:
                self._pool.shutdown(wait=True)
            context = multiprocessing.get_context(self.start_method)
            self._pool = ProcessPoolExecutor(max_workers=workers, mp_context=context)
            self._pool_size = workers
            self.spawn_count += 1
            logger.info(
                "window pool started: %d %s workers", workers, self.start_method
            )
        return self._pool

    def run_tasks(self, fn: Callable[[Any], Any], specs: Sequence[Any]) -> List[Any]:
        """Apply ``fn`` to the specs on the persistent pool; plan order.

        Same contract as
        :meth:`~repro.exec.executor.ParallelExecutor.run_tasks` —
        picklable module-level ``fn``, specs exposing ``shard_index``
        and ``board_ids``, structured
        :class:`~repro.errors.CampaignExecutionError` on failure — but
        the pool survives the call.  A failure *discards* the pool
        (worker processes may be poisoned); the next dispatch respawns.
        """
        if not specs:
            return []
        if self.max_workers == 1 or len(specs) == 1:
            return [
                ParallelExecutor._guarded(lambda s=spec: fn(s), spec) for spec in specs
            ]
        pool = self._ensure_pool(min(self.max_workers, len(specs)))
        futures = [pool.submit(fn, spec) for spec in specs]
        results: List[Any] = []
        try:
            for spec, future in zip(specs, futures):
                results.append(ParallelExecutor._guarded(future.result, spec))
        except CampaignExecutionError:
            self.close()
            raise
        return results

    def close(self) -> None:
        """Shut the pool down (idempotent); a later dispatch respawns."""
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None
            self._pool_size = 0
            logger.info("window pool closed")

    def __enter__(self) -> "WindowPool":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "live" if self._pool is not None else "idle"
        return (
            f"WindowPool(max_workers={self.max_workers}, "
            f"start_method={self.start_method!r}, {state})"
        )
