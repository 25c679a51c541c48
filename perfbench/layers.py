"""Per-layer spans for the traced benchmark run.

The wrappers live here, in the benchmark's own files: each one times a
call into a public entry point of one ``repro`` layer and counts the
work it did.  Nothing inside ``repro`` is edited; installing the
wrappers rebinds the entry points (every module that imported a
function by name is rebound too) and :meth:`LayerTracer.uninstall`
puts the originals back.

A span's *self* time is its duration minus the time covered by the
spans opened inside it, so the per-layer self times plus the campaign loop's
own remainder (``analysis``) add up to the traced total.  A call into a
layer that is already the innermost open span (``SRAMChip`` calling
``SRAMArray``, say) stays inside that span.

Layers that run inside spawned workers are invisible to wrappers in
this process; :func:`inline_executor_factory` runs the shards here
instead, with specs and results pickled as the pool would ship them.
"""

from __future__ import annotations

import concurrent.futures.process
import pickle
import sys
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

#: Cells per draw of the host-ceiling probe: one paper board's SRAM.
CEILING_CELLS = 20_480


class LayerTracer:
    """In-memory spans and counters around the layers' entry points."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, int] = defaultdict(int)
        self.total_s = 0.0
        #: Months of the checkpoints and shard keyframes loaded; the
        #: oldest is where the resume restarted simulating.
        self.resume_points: List[int] = []
        self._stack: List[List[Any]] = []
        self._undo: List[Tuple[Any, str, Any]] = []

    # Spans ---------------------------------------------------------------

    def call(self, kind: str, fn: Callable, args, kwargs):
        if self._stack and self._stack[-1][0] == kind:
            return fn(*args, **kwargs)
        frame = [kind, 0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            self._stack.pop()
            self.self_s[kind] += elapsed - frame[1]
            if self._stack:
                self._stack[-1][1] += elapsed
            else:
                self.total_s += elapsed

    def innermost(self) -> Optional[str]:
        return self._stack[-1][0] if self._stack else None

    # Installation --------------------------------------------------------

    def _rebind(self, owner, name: str, replacement) -> None:
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, replacement)

    def _wrapper(self, kind: Optional[str], original: Callable, hook) -> Callable:
        """``original`` inside a ``kind`` span (none if ``None``), then ``hook``."""

        def wrapper(*args, **kwargs):
            if kind is None:
                result = original(*args, **kwargs)
            else:
                result = self.call(kind, original, args, kwargs)
            if hook is not None:
                hook(args, kwargs, result)
            return result

        wrapper.__wrapped__ = original
        return wrapper

    def wrap_function(self, module, name: str, kind: Optional[str], hook=None) -> None:
        """Rebind ``module.name`` wherever a ``repro`` module holds it."""
        original = getattr(module, name)
        wrapper = self._wrapper(kind, original, hook)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.startswith("repro") and mod.__dict__.get(name) is original:
                self._rebind(mod, name, wrapper)

    def wrap_method(self, cls, name: str, kind: Optional[str], hook=None) -> None:
        """Rebind a method (plain or classmethod) on ``cls``."""
        raw = cls.__dict__[name]
        if isinstance(raw, classmethod):
            self._rebind(cls, name, classmethod(self._wrapper(kind, raw.__func__, hook)))
        else:
            self._rebind(cls, name, self._wrapper(kind, raw, hook))

    def wrap_dispatcher(self, cls) -> None:
        """Time and count ``cls.run_tasks``, the exec layer's dispatch."""

        def dispatched(args, kwargs, result):
            self.counts["exec.dispatches"] += 1

        self.wrap_method(cls, "run_tasks", "exec.dispatch", dispatched)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()

    def install(self) -> None:
        """Wrap every layer's public entry points (see module docstring)."""
        import repro.analysis.monthly as monthly
        import repro.io.resultstore as resultstore
        import repro.metrics.hamming as hamming
        import repro.store.atomic as atomic
        import repro.store.checkpoint as checkpoint
        import repro.store.shardstore as shardstore
        import repro.telemetry.rollup as rollup
        from repro.analysis.campaign import LongTermCampaign
        from repro.core.assessment import LongTermAssessment
        from repro.exec.executor import ParallelExecutor, SerialExecutor
        from repro.exec.pool import WindowPool
        from repro.monitor.hub import MonitorHub
        from repro.sram.aging import AgingSimulator
        from repro.sram.array import SRAMArray
        from repro.sram.fleetkernel import FleetKernel

        import repro.exec.windows  # noqa: F401  (binds persist_shard_window)

        counts = self.counts

        def count(name: str):
            def hook(args, kwargs, result):
                counts[name] += 1
            return hook

        def array_cells(args, kwargs, result):
            counts["sram.calls"] += 1
            counts["sram.cells_drawn"] += args[0].cell_count

        def kernel_cells(args, kwargs, result):
            counts["sram.calls"] += 1
            if kwargs.get("statistical", args[3] if len(args) > 3 else True):
                counts["sram.cells_drawn"] += args[0].board_count * args[0].cell_count

        def bchd_pairs(args, kwargs, result):
            counts["metrics.bchd_pairs"] += len(result)

        def resume_point(args, kwargs, result):
            self.resume_points.append(int(result.completed_month))

        def durable_write(size_of):
            def hook(args, kwargs, result):
                if self.innermost() == "store.write":
                    counts["store.writes"] += 1
                    counts["store.bytes_written"] += size_of(args)
            return hook

        self.wrap_method(SRAMArray, "sample_ones_counts", "sram.measure", array_cells)
        self.wrap_method(SRAMArray, "power_up", "sram.measure", count("sram.calls"))
        self.wrap_method(FleetKernel, "measure_block", "sram.measure", kernel_cells)
        self.wrap_method(FleetKernel, "read_startup", "sram.measure", count("sram.calls"))
        self.wrap_method(AgingSimulator, "age_array", "sram.age", count("sram.calls"))
        self.wrap_method(FleetKernel, "age_months", "sram.age", count("sram.calls"))

        for name in ("evaluate_board", "evaluate_fleet", "assemble_evaluation"):
            self.wrap_function(monthly, name, "metrics.evaluate")
        self.wrap_function(hamming, "between_class_hd", "metrics.bchd", bchd_pairs)

        for cls in (SerialExecutor, ParallelExecutor, WindowPool):
            self.wrap_dispatcher(cls)
        self.wrap_method(
            concurrent.futures.process.ProcessPoolExecutor,
            "__init__",
            None,
            count("exec.pool_spawns"),
        )

        self.wrap_method(checkpoint.CampaignCheckpointer, "save", "store.write")
        for name in (
            "persist_shard_window",
            "append_parent_month_record",
            "write_shard_manifest",
        ):
            self.wrap_function(shardstore, name, "store.write")
        self.wrap_function(
            atomic, "atomic_write_bytes", None, durable_write(lambda a: len(a[1]))
        )
        self.wrap_function(
            atomic,
            "append_line",
            None,
            durable_write(lambda a: len(a[1].encode("utf-8")) + 1),
        )
        self.wrap_function(
            atomic,
            "append_lines",
            None,
            durable_write(lambda a: sum(len(l.encode("utf-8")) + 1 for l in a[1])),
        )
        self.wrap_function(checkpoint, "load_latest_checkpoint", "store.load", resume_point)
        self.wrap_function(shardstore, "load_sharded_checkpoint", "store.load", resume_point)
        self.wrap_function(
            checkpoint, "load_latest_shard_keyframe", "store.load", resume_point
        )

        self.wrap_function(shardstore, "merge_sharded_campaign", "io.merge")
        self.wrap_function(resultstore, "save_campaign", "io.artifact")

        for name in ("observe_evaluation", "observe_rollups"):
            self.wrap_method(MonitorHub, name, "monitor.observe")
        self.wrap_method(MonitorHub, "poll_counters", "monitor.observe", count("monitor.polls"))

        for name in (
            "evaluation_shard_docs",
            "evaluation_profile_docs",
            "combine_rollup_docs",
            "fold_rollup_docs",
        ):
            self.wrap_function(rollup, name, "telemetry.rollup")
        for name in ("observe_board", "take"):
            self.wrap_method(rollup.ShardRollupBuilder, name, "telemetry.rollup")

        self.wrap_method(LongTermAssessment, "run", "analysis")
        self.wrap_method(LongTermCampaign, "run", "analysis")
        self.wrap_method(LongTermCampaign, "resume", "analysis")


def inline_executor_factory(max_workers: int, tracer):
    """Fresh in-process stand-in for the spawned pool, one per leg.

    The pool is a :class:`repro.exec.pool.WindowPool` subclass, so the
    campaign keeps the shard partition and store layout of
    ``max_workers`` workers.  Each spec and result is round-tripped
    through pickle, as the real pool ships them, and counted.  The
    window cache is cleared per leg because spawned workers start cold.
    """
    from repro.exec.pool import WindowPool
    from repro.exec.windows import clear_window_cache

    class InlinePicklingPool(WindowPool):
        def run_tasks(self, fn, specs):
            results = []
            for spec in specs:
                payload = pickle.dumps(spec)
                tracer.counts["exec.spec_bytes"] += len(payload)
                reply = pickle.dumps(fn(pickle.loads(payload)))
                tracer.counts["exec.result_bytes"] += len(reply)
                results.append(pickle.loads(reply))
            return results

    tracer.wrap_dispatcher(InlinePicklingPool)

    def new_pool():
        clear_window_cache()
        return InlinePicklingPool(max_workers)

    return new_pool


#: Self time of each span kind, reported as this per-layer metric.
LAYER_TIME_METRICS = {
    "sram.measure": "sram.measure_s",
    "sram.age": "sram.age_s",
    "metrics.evaluate": "metrics.evaluate_s",
    "metrics.bchd": "metrics.bchd_s",
    "exec.dispatch": "exec.dispatch_s",
    "store.write": "store.write_s",
    "store.load": "store.load_s",
    "io.merge": "io.merge_s",
    "io.artifact": "io.artifact_s",
    "monitor.observe": "monitor.observe_s",
    "telemetry.rollup": "telemetry.rollup_s",
    "analysis": "analysis.self_s",
}
LAYER_COUNT_METRICS = (
    "sram.calls",
    "sram.cells_drawn",
    "metrics.bchd_pairs",
    "exec.dispatches",
    "exec.spec_bytes",
    "exec.result_bytes",
    "exec.pool_spawns",
    "store.writes",
    "store.bytes_written",
    "monitor.polls",
)


def print_layer_table(title: str, tracer) -> None:
    total = tracer.total_s
    print(title)
    print(f"  {'layer':<20} {'self s':>7} {'share':>6}")
    for kind in LAYER_TIME_METRICS:
        spent = tracer.self_s.get(kind, 0.0)
        label = "analysis (remainder)" if kind == "analysis" else kind
        print(f"  {label:<20} {spent:7.3f} {100 * spent / total if total else 0:5.1f}%")
    print(f"  {'total':<20} {total:7.3f}")


def host_ceiling(seed: int, repeats: int = 3) -> Dict[str, float]:
    """Raw PCG64 draw rates at one paper board's cell count (cells/s).

    ``binomial(999, p)`` is the monthly block's draw and ``normal`` the
    power-up noise; the best of ``repeats`` timed loops is the ceiling.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    probs = rng.random(CEILING_CELLS)

    def rate(draw, loops: int) -> float:
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            for _ in range(loops):
                draw()
            best = min(best, time.perf_counter() - start)
        return loops * CEILING_CELLS / best

    return {
        "sram.ceiling_binomial_per_s": rate(lambda: rng.binomial(999, probs), 40),
        "sram.ceiling_normal_per_s": rate(lambda: rng.normal(size=CEILING_CELLS), 200),
    }
