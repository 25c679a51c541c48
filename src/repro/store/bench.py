"""The perf-regression ledger: an append-only benchmark history.

``repro bench record`` appends one JSON line per benchmark run to a
ledger file (through the store's fsync'd append path, so a recorded
result survives a crash); ``repro bench compare`` reads the ledger
back and flags threshold-crossing regressions between the newest two
runs of a benchmark on the same host.  The ledger is the durable
baseline that performance work — the ROADMAP's array-core refactor
first among it — gets judged against: wins and losses are both on the
record, keyed by benchmark name, host fingerprint and git revision.

Ledger lines are self-contained documents::

    {"bench_version": 1, "name": "perfbench/paper", "host": "8e9ccc5bfccf",
     "git_rev": "eab3490...", "created_at": "2026-10-19T23:30:00Z",
     "metrics": {"board_months_per_s": 226.7, "cpu_s": 1.72, ...},
     "meta": {"seed": 0, "attempted": 10, "failed": 0}}

Metric direction is inferred from the name (:func:`higher_is_better`):
throughput-shaped metrics (``*_per_s``, ``*_ops``, ``*_rate``,
``*_hits``, ``throughput*``) regress when they *drop*, everything else
(times, bytes) regresses when it *grows*.

Layering: this module sits inside :mod:`repro.store` and therefore
must not import :mod:`repro.telemetry` (or anything above the store)
at module scope.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import platform
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

from repro.errors import ConfigurationError, StorageError
from repro.store.artifact import ArtifactStore

logger = logging.getLogger(__name__)

#: Ledger line schema version (bumped on incompatible line changes).
BENCH_VERSION = 1

#: Conventional ledger file name inside a store directory.
BENCH_LEDGER_NAME = "bench_ledger.jsonl"

#: Default relative-change tolerance of :meth:`BenchLedger.compare`.
DEFAULT_THRESHOLD = 0.10

_HIGHER_SUFFIXES = ("_per_s", "_ops", "_rate", "_hits")


def higher_is_better(metric: str) -> bool:
    """Whether a metric improves upward (throughput) or downward (cost).

    >>> higher_is_better("months_per_s")
    True
    >>> higher_is_better("wall_s")
    False
    """
    return metric.startswith("throughput") or metric.endswith(_HIGHER_SUFFIXES)


def host_fingerprint() -> str:
    """Stable id of the benchmarking host (12 hex chars).

    Hashes the coarse hardware/interpreter shape — machine
    architecture, OS family, CPU count, Python major.minor — rather
    than anything ephemeral (hostname, kernel build), so one physical
    host keeps one fingerprint across reboots and minor upgrades while
    different hardware never silently shares a baseline.
    """
    shape = {
        "machine": platform.machine(),
        "system": platform.system(),
        "cpu_count": os.cpu_count(),
        "python": ".".join(map(str, sys.version_info[:2])),
    }
    canonical = json.dumps(shape, sort_keys=True).encode("utf-8")
    return hashlib.sha256(canonical).hexdigest()[:12]


def git_revision(cwd: Optional[str] = None) -> str:
    """The current git commit hash, or ``"unknown"`` outside a checkout."""
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=cwd,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    if completed.returncode != 0:
        return "unknown"
    return completed.stdout.strip() or "unknown"


def _utc_timestamp() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())


class BenchLedger:
    """Append-only JSONL benchmark history over one ledger file.

    Parameters
    ----------
    path:
        Ledger file path; created (with its directory) on first
        :meth:`record`.  Reads of a missing ledger return empty
        histories rather than raising.
    """

    def __init__(self, path: str):
        self._store, self._name = ArtifactStore.locate(path)

    @property
    def path(self) -> str:
        """Absolute ledger file path."""
        return self._store.path(self._name)

    def record(
        self,
        name: str,
        metrics: Dict[str, float],
        meta: Optional[Dict[str, Any]] = None,
        host: Optional[str] = None,
        git_rev: Optional[str] = None,
        created_at: Optional[str] = None,
    ) -> Dict[str, Any]:
        """Append one benchmark run and return the written document.

        ``host``/``git_rev``/``created_at`` default to the live values
        (:func:`host_fingerprint`, :func:`git_revision`, now) and are
        injectable for deterministic tests.
        """
        if not name:
            raise ConfigurationError("benchmark name cannot be empty")
        if not metrics:
            raise ConfigurationError(f"benchmark {name!r} recorded no metrics")
        clean: Dict[str, float] = {}
        for metric, value in metrics.items():
            try:
                clean[str(metric)] = float(value)
            except (TypeError, ValueError) as exc:
                raise ConfigurationError(
                    f"benchmark {name!r} metric {metric!r} is not numeric: {value!r}"
                ) from exc
        document: Dict[str, Any] = {
            "bench_version": BENCH_VERSION,
            "name": name,
            "host": host if host is not None else host_fingerprint(),
            "git_rev": git_rev if git_rev is not None else git_revision(),
            "created_at": created_at if created_at is not None else _utc_timestamp(),
            "metrics": clean,
            "meta": dict(meta) if meta else {},
        }
        self._store.append_jsonl(self._name, document, sort_keys=True)
        logger.info(
            "bench %s recorded: %s",
            name,
            ", ".join(f"{k}={v:.6g}" for k, v in sorted(clean.items())),
        )
        return document

    def records(
        self, name: Optional[str] = None, host: Optional[str] = None
    ) -> List[Dict[str, Any]]:
        """Ledger lines, oldest first, optionally filtered by name/host."""
        if not self._store.exists(self._name):
            return []
        documents: List[Dict[str, Any]] = []
        for line_number, document in enumerate(
            self._store.read_jsonl(self._name), start=1
        ):
            if not isinstance(document, dict) or "name" not in document:
                raise StorageError(
                    f"{self.path}:{line_number}: not a bench ledger line"
                )
            if name is not None and document["name"] != name:
                continue
            if host is not None and document.get("host") != host:
                continue
            documents.append(document)
        return documents

    def names(self) -> List[str]:
        """Distinct benchmark names in the ledger, sorted."""
        return sorted({document["name"] for document in self.records()})

    def compare(
        self,
        name: str,
        threshold: float = DEFAULT_THRESHOLD,
        host: Optional[str] = None,
    ) -> Dict[str, Any]:
        """Compare the newest run of ``name`` against the run before it.

        Both runs must come from the same host (``host`` defaults to
        this one's fingerprint — cross-host numbers are not
        comparable).  For every metric present in both runs the
        relative change is measured against ``threshold``; a metric
        regresses when it moves *worse* (per :func:`higher_is_better`)
        by more than the threshold.  Raises
        :class:`~repro.errors.StorageError` when fewer than two runs
        exist — a compare with nothing to compare against is a CI
        misconfiguration, not a pass.
        """
        if threshold < 0:
            raise ConfigurationError(f"threshold cannot be negative, got {threshold}")
        fingerprint = host if host is not None else host_fingerprint()
        history = self.records(name=name, host=fingerprint)
        if len(history) < 2:
            raise StorageError(
                f"bench {name!r} has {len(history)} run(s) on host {fingerprint} "
                f"in {self.path}; need at least 2 to compare"
            )
        baseline, candidate = history[-2], history[-1]
        metrics: Dict[str, Dict[str, Any]] = {}
        regressions: List[str] = []
        for metric in sorted(candidate.get("metrics", {})):
            if metric not in baseline.get("metrics", {}):
                continue
            old = float(baseline["metrics"][metric])
            new = float(candidate["metrics"][metric])
            if old != 0:
                change = (new - old) / old
            elif new == old:
                change = 0.0
            else:
                # A zero baseline makes any movement an infinite relative
                # change; keep the sign so direction logic still applies.
                change = float("inf") if new > old else float("-inf")
            upward = higher_is_better(metric)
            regressed = (change < -threshold) if upward else (change > threshold)
            metrics[metric] = {
                "baseline": old,
                "candidate": new,
                "change": change,
                "higher_is_better": upward,
                "regression": regressed,
            }
            if regressed:
                regressions.append(metric)
        return {
            "name": name,
            "host": fingerprint,
            "threshold": threshold,
            "baseline": baseline,
            "candidate": candidate,
            "metrics": metrics,
            "regressions": regressions,
        }


def render_comparison(comparison: Dict[str, Any]) -> str:
    """Text table of one :meth:`BenchLedger.compare` result."""
    lines = [
        f"bench {comparison['name']} (host {comparison['host']}, "
        f"threshold {comparison['threshold'] * 100:.0f}%):",
        f"  baseline  {comparison['baseline']['git_rev'][:12]} "
        f"@ {comparison['baseline']['created_at']}",
        f"  candidate {comparison['candidate']['git_rev'][:12]} "
        f"@ {comparison['candidate']['created_at']}",
        f"  {'metric':<24} {'baseline':>12} {'candidate':>12} {'change':>9} {'status':>10}",
    ]
    for metric, row in comparison["metrics"].items():
        status = "REGRESSED" if row["regression"] else "ok"
        lines.append(
            f"  {metric:<24} {row['baseline']:>12.6g} {row['candidate']:>12.6g} "
            f"{row['change'] * 100:>+8.1f}% {status:>10}"
        )
    if comparison["regressions"]:
        lines.append(
            f"  regressions: {', '.join(comparison['regressions'])}"
        )
    else:
        lines.append("  no regressions")
    return "\n".join(lines)
