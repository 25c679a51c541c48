"""Persistent worker pool for month-windowed campaigns.

:class:`~repro.exec.executor.ParallelExecutor` builds a fresh
``ProcessPoolExecutor`` for every ``run_tasks`` call.  That is the
right shape for the full-trajectory sharded path — one dispatch per
campaign — but the checkpointed month-window driver dispatches once
*per month*, so a 24-month campaign paid 25 rounds of ``spawn``
start-up.  Most of a lane's start-up is importing
:mod:`repro.exec.windows`, which the package inits keep to what a
window runs (see "Worker start-up" in ``docs/parallel.md``).

:class:`WindowPool` keeps its workers alive for the whole campaign.
It exposes the same duck-typed executor surface (``max_workers`` plus
``run_tasks``), so :meth:`LongTermCampaign.run` can adopt it
transparently, tests can inject it, and the serial≡parallel
byte-identity suite gates it like any other executor.

**Sticky lanes.**  The pool is ``n`` *lanes*, each a single-worker
``ProcessPoolExecutor``, and the spec of shard ``i`` always runs on
lane ``i % n``.  A shard's month-``m+1`` window therefore lands in the
process that holds its boards after month ``m`` — the resident slot
of :mod:`repro.exec.windows` — and no board state has to cross the
process boundary between months.

The lanes use :data:`repro.exec.executor.START_METHOD` (``spawn``),
for the same hermetic determinism reasons as
:class:`~repro.exec.executor.ParallelExecutor`.

Determinism note: results are collected in plan order and every
window is a pure function of its spec and the shard's resident slot
(which a window only uses at the exact month that follows it), so
outputs are byte-identical at every worker count.
"""

from __future__ import annotations

import logging
import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Callable, List, Sequence

from repro.errors import CampaignExecutionError, ConfigurationError
from repro.exec.executor import START_METHOD, ParallelExecutor

logger = logging.getLogger(__name__)


class WindowPool:
    """Sticky ``spawn`` worker lanes with one lifetime.

    Parameters
    ----------
    max_workers:
        Number of lanes.  Like
        :class:`~repro.exec.executor.ParallelExecutor`, a pool of one
        runs tasks inline (no subprocess), and the live lanes never
        outnumber the widest dispatch seen so far.
    """

    def __init__(self, max_workers: int):
        if max_workers < 1:
            raise ConfigurationError(f"max_workers must be >= 1, got {max_workers}")
        self.max_workers = int(max_workers)
        #: How many times the lanes were started (all of them count
        #: once).  The pool-reuse regression test asserts this stays at
        #: 1 across a whole multi-month campaign.
        self.spawn_count = 0
        self._lanes: List[ProcessPoolExecutor] = []

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

    def _ensure_lanes(self, lanes: int) -> List[ProcessPoolExecutor]:
        """The live lanes, (re)started only when absent or too few."""
        if len(self._lanes) < lanes:
            self.close()
            context = multiprocessing.get_context(START_METHOD)
            self._lanes = [
                ProcessPoolExecutor(max_workers=1, mp_context=context)
                for _ in range(lanes)
            ]
            self.spawn_count += 1
            logger.info("window pool started: %d %s lanes", lanes, START_METHOD)
        return self._lanes

    def run_tasks(self, fn: Callable[[Any], Any], specs: Sequence[Any]) -> List[Any]:
        """Apply ``fn`` to the specs on the persistent lanes; plan order.

        Same contract as
        :meth:`~repro.exec.executor.ParallelExecutor.run_tasks` —
        picklable module-level ``fn``, specs exposing ``shard_index``
        and ``board_ids``, structured
        :class:`~repro.errors.CampaignExecutionError` on failure — but
        the lanes survive the call, and shard ``i`` runs on lane
        ``i % n``.  A failure *discards* every lane (worker processes
        may be poisoned); the next dispatch respawns.
        """
        if not specs:
            return []
        if self.max_workers == 1 or len(specs) == 1:
            return [
                ParallelExecutor._guarded(lambda s=spec: fn(s), spec) for spec in specs
            ]
        lanes = self._ensure_lanes(min(self.max_workers, len(specs)))
        futures = [lanes[spec.shard_index % len(lanes)].submit(fn, spec) for spec in specs]
        results: List[Any] = []
        try:
            for spec, future in zip(specs, futures):
                results.append(ParallelExecutor._guarded(future.result, spec))
        except CampaignExecutionError:
            self.close()
            raise
        return results

    def close(self) -> None:
        """Shut every lane down (idempotent); a later dispatch respawns."""
        if self._lanes:
            for lane in self._lanes:
                lane.shutdown(wait=True, cancel_futures=True)
            self._lanes = []
            logger.info("window pool closed")

    def __enter__(self) -> "WindowPool":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __repr__(self) -> str:
        state = f"{len(self._lanes)} live lanes" if self._lanes else "idle"
        return f"WindowPool(max_workers={self.max_workers}, {state})"
