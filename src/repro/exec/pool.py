"""Worker lanes and the guarded dispatch every executor shares.

Every campaign runs as month windows: one dispatch per month, each
shard's window advancing its boards by one month (see
:mod:`repro.exec.windows`).  A fresh process pool per dispatch would
pay a round of lane start-up every month, and most of a fresh lane's
start-up is importing :mod:`repro.exec.windows`, which the package
inits keep to what a window runs (see "Worker start-up" in
``docs/parallel.md``).

:class:`WindowPool` keeps its workers alive for the whole campaign.
It exposes the duck-typed executor surface (``max_workers`` plus
``run_tasks``), so :meth:`LongTermCampaign.run` can adopt it
transparently, tests can inject it, and the serial≡parallel
byte-identity suite gates it like any other executor.

**Sticky lanes.**  The pool is ``n`` *lanes*, each a single-worker
``ProcessPoolExecutor``, and the spec of shard ``i`` always runs on
lane ``i % n``.  A shard's month-``m+1`` window therefore lands in the
process that holds its boards after month ``m`` — the resident slot
of :mod:`repro.exec.windows` — and no board state has to cross the
process boundary between months.

**Warm lanes.**  The lanes use the ``forkserver`` start method
(:data:`START_METHOD`).  The first multi-lane pool of a process starts
one server that imports :data:`PRELOAD` and nothing else; every lane
of every later pool is a fork of it, so the window closure is imported
once per process instead of once per lane.  Each pool still gets fresh
lane processes, forked from a server that never ran a window and
holds no resident slot, and they inherit no state of the caller
(locks, open files, RNG state) that could perturb determinism.  Lanes
see the environment as of the server's start.  Platforms without
``forkserver`` (Windows) start every lane with ``spawn``.

Determinism note: results are collected in plan order and every
window is a pure function of its spec and the shard's resident slot
(which a window only uses at the exact month that follows it), so
outputs are byte-identical at every worker count.
"""

from __future__ import annotations

import logging
import multiprocessing
import os
import shutil
import tempfile
import threading
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from multiprocessing.util import Finalize
from typing import Any, Callable, List, Sequence

from repro.errors import CampaignExecutionError, ConfigurationError

logger = logging.getLogger(__name__)

#: Start method used for worker processes.  ``fork`` would share the
#: caller's memory and locks; a ``forkserver`` lane is a fork of a
#: server that only imported :data:`PRELOAD`, as hermetic as a
#: ``spawn`` lane without re-importing the window closure.  ``spawn``
#: is the fallback where ``forkserver`` does not exist (Windows).
START_METHOD = (
    "forkserver" if "forkserver" in multiprocessing.get_all_start_methods() else "spawn"
)

#: The module the forkserver imports once, before it forks any lane.
PRELOAD = "repro.exec.windows"

#: The directory that holds the ``repro`` package this module is part of.
_IMPORT_ROOT = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
)

#: Serialises the ``PYTHONPATH`` swap around a server start.
_SERVER_START = threading.Lock()


def _guarded(call: Callable[[], Any], spec: Any) -> Any:
    """Run a zero-arg ``call`` and normalise failures to CampaignExecutionError."""
    try:
        return call()
    except CampaignExecutionError:
        raise
    except Exception as exc:  # BrokenProcessPool, pickling errors, OSError, ...
        raise CampaignExecutionError(
            f"shard {spec.shard_index} (boards {list(spec.board_ids)}) "
            f"died without a structured error: {exc}",
            shard_index=spec.shard_index,
        ) from exc


def _own_temp_dir() -> None:
    """Create multiprocessing's temp dir, with a removal that tolerates its loss.

    The forkserver's listener socket lives in this process's ``pymp-*``
    directory under ``TMPDIR``.  Multiprocessing removes that directory
    at exit with a plain ``rmtree``, which prints a ``FileNotFoundError``
    traceback when the caller has already deleted its ``TMPDIR``.  Made
    here first, it is removed with ``ignore_errors`` instead.  A
    directory multiprocessing already made stays its own.
    """
    config = multiprocessing.current_process()._config
    if config.get("tempdir") is None:
        tempdir = tempfile.mkdtemp(prefix="pymp-")
        Finalize(
            None, shutil.rmtree, args=(tempdir,), kwargs={"ignore_errors": True},
            exitpriority=-100,
        )
        config["tempdir"] = tempdir


def _ensure_server() -> None:
    """Make sure the lanes' forkserver runs, with :data:`PRELOAD` imported.

    The stdlib's ``ensure_running`` returns at once while the server
    lives and starts a new one if it died.  The server imports the
    preload by name but ignores the ``sys.path`` it is handed (and
    swallows the ``ImportError``), so the directory holding this
    ``repro`` goes on its ``PYTHONPATH`` for the start only.
    """
    from multiprocessing import forkserver

    with _SERVER_START:
        _own_temp_dir()
        forkserver.set_forkserver_preload([PRELOAD])
        saved = os.environ.get("PYTHONPATH")
        os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (_IMPORT_ROOT, saved) if p)
        try:
            forkserver.ensure_running()
        finally:
            if saved is None:
                del os.environ["PYTHONPATH"]
            else:
                os.environ["PYTHONPATH"] = saved


def run_inline(fn: Callable[[Any], Any], specs: Sequence[Any]) -> List[Any]:
    """Apply ``fn`` to every spec in this process, in plan order.

    Failures surface exactly as from a worker lane: a
    :class:`~repro.errors.CampaignExecutionError` naming the spec's
    shard, whatever the window raised.
    """
    return [_guarded(lambda s=spec: fn(s), spec) for spec in specs]


class WindowPool:
    """Sticky worker lanes with one lifetime.

    Parameters
    ----------
    max_workers:
        Number of lanes.  A pool of one runs tasks inline (no
        subprocess), and the live lanes never outnumber the widest
        dispatch seen so far.
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
            if START_METHOD == "forkserver":
                _ensure_server()
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

        ``fn`` must be a picklable module-level callable and every spec
        must expose ``shard_index`` and ``board_ids`` (for structured
        :class:`~repro.errors.CampaignExecutionError` reports).  The
        lanes survive the call, and shard ``i`` runs on lane ``i % n``.
        A failure *discards* every lane (worker processes may be
        poisoned); the next dispatch respawns.
        """
        return self._dispatch(fn, specs)

    def _dispatch(self, fn: Callable[[Any], Any], specs: Sequence[Any]) -> List[Any]:
        """The body of :meth:`run_tasks`.

        :class:`~repro.exec.executor.ParallelExecutor` calls it on its
        one-shot pool, so a dispatch through it is one ``run_tasks``
        call, not two.
        """
        if self.max_workers == 1 or len(specs) <= 1:
            return run_inline(fn, specs)
        lanes = self._ensure_lanes(min(self.max_workers, len(specs)))
        futures = [lanes[spec.shard_index % len(lanes)].submit(fn, spec) for spec in specs]
        results: List[Any] = []
        try:
            for spec, future in zip(specs, futures):
                results.append(_guarded(future.result, spec))
        except CampaignExecutionError:
            self.close()
            raise
        return results

    def close(self) -> None:
        """Shut every lane down (idempotent); a later dispatch respawns.

        The lanes shut down concurrently, one thread each, and the call
        returns once every lane's worker process has exited (a failed
        shutdown raises here).
        """
        if self._lanes:
            with ThreadPoolExecutor(len(self._lanes)) as closers:
                shutdowns = [
                    closers.submit(lane.shutdown, wait=True, cancel_futures=True)
                    for lane in self._lanes
                ]
                for shutdown in shutdowns:
                    shutdown.result()
            self._lanes = []
            logger.info("window pool closed")

    def __enter__(self) -> "WindowPool":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __repr__(self) -> str:
        state = f"{len(self._lanes)} live lanes" if self._lanes else "idle"
        return f"WindowPool(max_workers={self.max_workers}, {state})"
