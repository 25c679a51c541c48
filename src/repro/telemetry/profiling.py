"""Deterministic phase attribution for the monthly hot path.

Tracing (:mod:`repro.telemetry.tracing`) answers *where a campaign's
wall-clock went* span by span; this module answers the complementary
question — *which kind of work ate the CPU* — by accumulating flat
per-phase totals over a small fixed catalogue of hot-path phases
(:data:`PHASES`): noise draws, power-ups, aging steps, metric
computation, monitor polling and store I/O.

A :class:`PhaseProfiler` is dict-cheap and pickle-friendly: workers
run a private profiler, ship its :meth:`~PhaseProfiler.take` deltas
back with their shard results, and the campaign driver
:meth:`~PhaseProfiler.merge`\\ s them into the parent's profiler, so
the per-phase table is exact regardless of worker count.  Like the
tracer, the profiler never touches any random stream — toggling it
cannot change a simulation's scientific output.

Profiling is *opt-in*: a disabled profiler hands out a shared no-op
context manager, so instrumented hot loops pay one attribute check
and nothing else.

Examples
--------
>>> profiler = PhaseProfiler(enabled=True)
>>> with profiler.phase(PHASE_POWERUP):
...     pass
>>> profiler.snapshot()[PHASE_POWERUP]["calls"]
1
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, Mapping, Optional

from repro.errors import ConfigurationError

#: Hot-path phase names, in catalogue order (docs/profiling.md).
PHASE_NOISE_DRAW = "noise_draw"
PHASE_POWERUP = "powerup"
PHASE_AGING = "aging"
PHASE_METRICS = "metrics"
PHASE_MONITOR = "monitor"
PHASE_STORE_IO = "store_io"

PHASES = (
    PHASE_NOISE_DRAW,
    PHASE_POWERUP,
    PHASE_AGING,
    PHASE_METRICS,
    PHASE_MONITOR,
    PHASE_STORE_IO,
)


class _NullPhase:
    """Shared no-op stand-in handed out by a disabled profiler."""

    __slots__ = ()

    def __enter__(self) -> "_NullPhase":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        return None


NULL_PHASE = _NullPhase()


class _ActivePhase:
    """Context manager accumulating one timed interval into a phase."""

    __slots__ = ("_profiler", "_name", "_calls", "_wall0", "_cpu0")

    def __init__(self, profiler: "PhaseProfiler", name: str, calls: int):
        self._profiler = profiler
        self._name = name
        self._calls = calls

    def __enter__(self) -> "_ActivePhase":
        self._wall0 = self._profiler._clock()
        self._cpu0 = self._profiler._cpu_clock()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        profiler = self._profiler
        profiler.add(
            self._name,
            profiler._clock() - self._wall0,
            profiler._cpu_clock() - self._cpu0,
            self._calls,
        )
        return None


class PhaseProfiler:
    """Flat per-phase wall/CPU/call accumulator.

    Parameters
    ----------
    enabled:
        When ``False`` (the default) :meth:`phase` returns a shared
        no-op context manager and records nothing.
    clock, cpu_clock:
        Injectable time sources (wall seconds / CPU seconds), so tests
        can drive the profiler deterministically.  Default to
        :func:`time.perf_counter` and :func:`time.process_time`.

    Notes
    -----
    Phases are *flat*: each ``with profiler.phase(...)`` interval
    counts its own elapsed time, so nesting two phases double-counts
    the overlap.  The shipped call sites never nest — the catalogue
    phases partition the monthly hot path.
    """

    def __init__(
        self,
        enabled: bool = False,
        clock: Optional[Callable[[], float]] = None,
        cpu_clock: Optional[Callable[[], float]] = None,
    ):
        self.enabled = enabled
        self._clock = clock if clock is not None else time.perf_counter
        self._cpu_clock = cpu_clock if cpu_clock is not None else time.process_time
        # name -> [wall_s, cpu_s, calls]; plain lists keep add() one
        # dict lookup plus three in-place adds on the hot path.
        self._totals: Dict[str, List[float]] = {}

    def phase(self, name: str, calls: int = 1):
        """Time one phase interval: ``with profiler.phase(PHASE_POWERUP): ...``.

        ``calls`` is how many calls the interval counts as: a batched
        fleet operation counts one per board it covers, so the call
        column does not depend on how the fleet was sharded.
        """
        if not self.enabled:
            return NULL_PHASE
        return _ActivePhase(self, name, calls)

    def add(self, name: str, wall_s: float, cpu_s: float, calls: int = 1) -> None:
        """Accumulate one measured interval (or a pre-summed batch)."""
        if not name:
            raise ConfigurationError("phase name cannot be empty")
        total = self._totals.get(name)
        if total is None:
            self._totals[name] = [float(wall_s), float(cpu_s), int(calls)]
        else:
            total[0] += wall_s
            total[1] += cpu_s
            total[2] += calls

    def merge(self, deltas: Mapping[str, Mapping[str, Any]]) -> None:
        """Fold a :meth:`snapshot`/:meth:`take` delta map into this profiler.

        Used parent-side to absorb worker phase totals; merging is
        plain addition, so any sharding of the work produces the same
        final table as a serial pass.
        """
        for name, delta in deltas.items():
            self.add(
                name,
                float(delta.get("wall_s", 0.0)),
                float(delta.get("cpu_s", 0.0)),
                int(delta.get("calls", 0)),
            )

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """JSON/pickle-safe copy of the per-phase totals."""
        return {
            name: {"wall_s": total[0], "cpu_s": total[1], "calls": total[2]}
            for name, total in self._totals.items()
        }

    def take(self) -> Dict[str, Dict[str, Any]]:
        """Snapshot the totals and zero them (worker delta shipping)."""
        snapshot = self.snapshot()
        self._totals = {}
        return snapshot

    def total_cpu_s(self) -> float:
        """CPU seconds attributed across all phases."""
        return sum(total[1] for total in self._totals.values())

    def reset(self) -> None:
        """Drop all accumulated totals (the enabled flag survives)."""
        self._totals = {}

    def render_table(self) -> str:
        """Text table: one line per phase, sorted by CPU share descending."""
        lines = [
            f"{'phase':<14} {'calls':>10} {'wall':>10} {'cpu':>10} {'% cpu':>7}",
            "-" * 56,
        ]
        if not self._totals:
            lines.append("(no phases recorded — was profiling enabled?)")
            return "\n".join(lines)
        total_cpu = self.total_cpu_s()
        ordered = sorted(
            self._totals.items(), key=lambda item: (-item[1][1], item[0])
        )
        for name, (wall_s, cpu_s, calls) in ordered:
            share = f"{100.0 * cpu_s / total_cpu:6.1f}%" if total_cpu > 0 else f"{'-':>7}"
            lines.append(
                f"{name:<14} {int(calls):>10} {_format_seconds(wall_s):>10} "
                f"{_format_seconds(cpu_s):>10} {share}"
            )
        lines.append("-" * 56)
        lines.append(
            f"{'total':<14} {'':>10} {'':>10} "
            f"{_format_seconds(total_cpu):>10} {'100.0%' if total_cpu > 0 else '':>7}"
        )
        return "\n".join(lines)


def _format_seconds(seconds: float) -> str:
    """Human-scale duration: microseconds to seconds."""
    if seconds < 1e-3:
        return f"{seconds * 1e6:.0f} us"
    if seconds < 1.0:
        return f"{seconds * 1e3:.1f} ms"
    return f"{seconds:.2f} s"
