"""Periodic heartbeat for long-running campaigns.

:class:`SnapshotEmitter` is a progress callback (the
``callback(completed, total)`` shape the campaign driver already
supports) that appends one JSON line per snapshot to a heartbeat file::

    {"sequence": 4, "month": 3, "completed": 4, "total": 25,
     "wall_s": 1.93, "cpu_s": 1.91, "rss_kb": 91648, "alerts": 0,
     "run_id": "91c5ad9c0e3b17a2", "months_per_s": 2.073}

Heartbeats carry the campaign's deterministic ``run_id`` (the same
key stamped into alert lines and trace exports) and the live
``months_per_s`` throughput; when phase profiling is on, a ``phases``
table of per-phase wall/CPU totals rides along too.

``tail -f campaign.heartbeat.jsonl`` is then a live view of a run that
may take hours at production scale: which month it is on, how much
wall/CPU time has gone by, the resident set size (where ``resource``
is available) and how many alerts the attached hub has raised.
"""

from __future__ import annotations

import time
from typing import Any, Dict, Optional

from repro.errors import ConfigurationError
from repro.monitor.hub import MonitorHub
from repro.store.artifact import ArtifactStore
from repro.telemetry.resources import current_rss_kb
from repro.telemetry.rollup import RollupRegistry

__all__ = ["SnapshotEmitter", "current_rss_kb", "heartbeat_path_for"]


def heartbeat_path_for(artifact_path: str) -> str:
    """Conventional heartbeat path next to a campaign artifact.

    >>> heartbeat_path_for("campaign.json")
    'campaign.heartbeat.jsonl'
    """
    if artifact_path.endswith(".json"):
        return artifact_path[: -len(".json")] + ".heartbeat.jsonl"
    return artifact_path + ".heartbeat.jsonl"


class SnapshotEmitter:
    """Appends heartbeat lines as campaign progress arrives.

    Parameters
    ----------
    path:
        Heartbeat file (JSON Lines, appended per emission).
    hub:
        Optional :class:`~repro.monitor.hub.MonitorHub` whose alert
        count rides along in every heartbeat.
    every:
        Emit every ``every``-th progress call (the final call always
        emits, so a tail never misses the finish line).
    clock, cpu_clock:
        Injectable time sources (default ``time.perf_counter`` /
        ``time.process_time``), overridable for deterministic tests.
    rollups:
        Optional :class:`~repro.telemetry.rollup.RollupRegistry` whose
        finalized per-scope statistics ride along in every heartbeat
        (the ``repro status`` dashboard renders them live).
    flight:
        Optional :class:`~repro.telemetry.flight.FlightRecorder` that
        receives a ``heartbeat`` event per emission.
    run_id:
        Correlation key of the run (the campaign's deterministic run
        id) stamped into every heartbeat line, so the dashboard can
        join heartbeats with alerts and traces.
    profiler:
        Optional :class:`~repro.telemetry.profiling.PhaseProfiler`
        whose per-phase totals ride along in every heartbeat when it
        is enabled (``repro status`` renders the top phases live).
    """

    def __init__(
        self,
        path: str,
        hub: Optional[MonitorHub] = None,
        every: int = 1,
        clock=time.perf_counter,
        cpu_clock=time.process_time,
        rollups: Optional[RollupRegistry] = None,
        flight=None,
        run_id: Optional[str] = None,
        profiler=None,
    ):
        if every < 1:
            raise ConfigurationError(f"every must be >= 1, got {every}")
        self._path = path
        self._hub = hub
        self._every = every
        self._clock = clock
        self._cpu_clock = cpu_clock
        self._rollups = rollups
        self._flight = flight
        self._run_id = run_id
        self._profiler = profiler
        self._wall_start = clock()
        self._cpu_start = cpu_clock()
        self._sequence = 0

    @property
    def path(self) -> str:
        """The heartbeat file path."""
        return self._path

    @property
    def emitted(self) -> int:
        """Heartbeat lines written so far."""
        return self._sequence

    def __call__(self, completed: int, total: int) -> None:
        """Progress-callback entry point: maybe emit a heartbeat."""
        if completed % self._every != 0 and completed != total:
            return
        self.emit(completed, total)

    def emit(self, completed: int, total: int) -> Dict[str, Any]:
        """Append one heartbeat line and return the written document."""
        wall_s = round(self._clock() - self._wall_start, 6)
        document: Dict[str, Any] = {
            "sequence": self._sequence,
            # Progress arrives as completed snapshot counts; the last
            # finished month index is one less (month 0 is the first).
            "month": completed - 1,
            "completed": completed,
            "total": total,
            "wall_s": wall_s,
            "cpu_s": round(self._cpu_clock() - self._cpu_start, 6),
            "rss_kb": current_rss_kb(),
            "alerts": self._hub.alert_count if self._hub is not None else None,
            "run_id": self._run_id,
            "months_per_s": round(completed / wall_s, 3) if wall_s > 0 else None,
        }
        if self._rollups is not None:
            document["rollups"] = self._rollups.snapshot()
        if self._profiler is not None and self._profiler.enabled:
            document["phases"] = self._profiler.snapshot()
        store, name = ArtifactStore.locate(self._path)
        store.append_jsonl(name, document, sort_keys=True)
        if self._flight is not None:
            self._flight.record(
                "heartbeat",
                sequence=document["sequence"],
                month=document["month"],
                completed=completed,
                total=total,
            )
        self._sequence += 1
        return document
