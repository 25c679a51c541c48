"""The ``repro status`` dashboard: a campaign's health at a glance.

A monitored campaign leaves a live paper trail next to its artifact:
the heartbeat JSONL (:func:`~repro.monitor.heartbeat.heartbeat_path_for`),
the alert log (:func:`~repro.monitor.alerts.alert_log_path_for`) and —
after a crash — the flight record
(:func:`~repro.telemetry.flight.flight_record_path_for`).  This module
turns those append-only files into one text dashboard:

* :func:`read_jsonl_tolerant` — reads a JSONL file that may still be
  growing, silently dropping a torn final line.
* :func:`load_status` — gathers the newest heartbeat, the full alert
  history and any flight record into a :class:`CampaignStatus`.
* :func:`render_status` — the dashboard text: progress, throughput,
  the per-shard rollup table, active alerts with their drill-down
  paths, and worker resource figures.

Everything here is read-only: the dashboard never writes, locks or
truncates campaign files, so it is safe to run while the campaign is.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.monitor.alerts import alert_log_path_for
from repro.monitor.heartbeat import heartbeat_path_for
from repro.telemetry.flight import flight_record_path_for
from repro.telemetry.labels import parse_labeled_name


def read_jsonl_tolerant(path: str) -> List[Dict[str, Any]]:
    """Parse a JSONL file, skipping a torn (still-being-written) tail.

    A campaign appends heartbeat and alert lines while the dashboard
    reads them, so the final line may be incomplete; any line that does
    not parse as a JSON object is dropped rather than raised.  Missing
    files read as empty histories.
    """
    if not os.path.exists(path):
        return []
    documents: List[Dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                document = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(document, dict):
                documents.append(document)
    return documents


@dataclass(frozen=True)
class CampaignStatus:
    """Everything :func:`render_status` needs, already loaded."""

    target: str
    #: Newest heartbeat document, or ``None`` before the first one.
    heartbeat: Optional[Dict[str, Any]] = None
    #: All parsed heartbeat lines, oldest first.
    heartbeats: List[Dict[str, Any]] = field(default_factory=list)
    #: All parsed alert-log lines, oldest first.
    alerts: List[Dict[str, Any]] = field(default_factory=list)
    #: Parsed flight record (crash dump), or ``None`` when absent.
    flight: Optional[Dict[str, Any]] = None


def load_status(target: str) -> CampaignStatus:
    """Load the status files conventionally named after ``target``.

    ``target`` is the campaign artifact path handed to ``repro run
    --save`` — the heartbeat, alert-log and flight-record paths are
    derived from it by the same conventions the campaign writes with.
    """
    heartbeats = read_jsonl_tolerant(heartbeat_path_for(target))
    alerts = read_jsonl_tolerant(alert_log_path_for(target))
    flight_path = flight_record_path_for(target)
    flight: Optional[Dict[str, Any]] = None
    if os.path.exists(flight_path):
        try:
            with open(flight_path, "r", encoding="utf-8") as handle:
                loaded = json.load(handle)
            if isinstance(loaded, dict):
                flight = loaded
        except (json.JSONDecodeError, OSError):
            flight = None
    return CampaignStatus(
        target=target,
        heartbeat=heartbeats[-1] if heartbeats else None,
        heartbeats=heartbeats,
        alerts=alerts,
        flight=flight,
    )


def _shard_table(rollups: Dict[str, Dict[str, Any]]) -> List[str]:
    """Per-scope rollup rows: fleet, then shards, then profile cohorts."""

    def sort_key(item):
        base, labels = item
        scope = labels.get("scope", "")
        shard = labels.get("shard")
        order = {"fleet": 0, "shard": 1}.get(scope, 2)
        return (
            order,
            int(shard) if shard else -1,
            labels.get("profile", ""),
            base,
        )

    rows: List[str] = []
    parsed = []
    for name, stats in rollups.items():
        base, labels = parse_labeled_name(name)
        if labels.get("scope") in ("fleet", "shard", "profile"):
            parsed.append(((base, labels), stats))
    if not parsed:
        return rows
    rows.append(
        f"  {'scope':<10} {'metric':<22} {'count':>6} {'mean':>10} "
        f"{'p50':>10} {'p99':>10} {'max':>10}"
    )
    for (base, labels), stats in sorted(parsed, key=lambda p: sort_key(p[0])):
        scope = labels.get("scope", "")
        if scope == "fleet":
            label = scope
        elif scope == "profile":
            label = f"profile={labels.get('profile')}"
        else:
            label = f"shard={labels.get('shard')}"
        rows.append(
            f"  {label:<10} {base:<22} {stats.get('count', 0):>6} "
            f"{stats.get('mean', float('nan')):>10.4g} "
            f"{stats.get('p50', float('nan')):>10.4g} "
            f"{stats.get('p99', float('nan')):>10.4g} "
            f"{stats.get('max', float('nan')):>10.4g}"
        )
    return rows


def render_status(status: CampaignStatus) -> str:
    """The dashboard text for one loaded :class:`CampaignStatus`.

    Renders progress and throughput from the newest heartbeat, the
    hierarchical rollup table when the heartbeat carries one, the most
    recent alerts (with drill-down paths), worker resource figures, and
    a crash banner when a flight record exists.
    """
    lines: List[str] = [f"campaign status: {status.target}"]
    beat = status.heartbeat
    if beat is None:
        lines.append("  (no heartbeat yet — campaign not started or not monitored)")
    else:
        run_id = beat.get("run_id")
        if run_id:
            lines.append(f"  run id: {run_id}")
        store = beat.get("store")  # written by older releases only
        if store:
            lines.append(f"  store: {store}")
        completed = beat.get("completed", 0)
        total = beat.get("total", 0)
        wall = beat.get("wall_s") or 0.0
        rate = beat.get("months_per_s")
        if rate is None:
            rate = completed / wall if wall else float("nan")
        lines.append(
            f"  progress: {completed}/{total} snapshots "
            f"(month {beat.get('month')}) in {wall:.1f}s "
            f"({rate:.2f} months/s)"
        )
        rss = beat.get("rss_kb")
        cpu = beat.get("cpu_s")
        if rss is not None or cpu is not None:
            lines.append(
                f"  resources: cpu {cpu if cpu is not None else '?'}s, "
                f"rss {rss if rss is not None else '?'} KiB"
            )
        phases = beat.get("phases")
        if phases:
            top = sorted(
                phases.items(),
                key=lambda item: -float(item[1].get("cpu_s", 0.0)),
            )[:3]
            rendered = ", ".join(
                f"{name} {float(stats.get('cpu_s', 0.0)):.2f}s"
                for name, stats in top
            )
            lines.append(f"  top phases (cpu): {rendered}")
        rollups = beat.get("rollups")
        if rollups:
            lines.append("rollups:")
            lines += _shard_table(rollups)
    if status.alerts:
        lines.append(f"alerts ({len(status.alerts)} total, newest last):")
        for alert in status.alerts[-8:]:
            path = alert.get("path") or ""
            suffix = f"  [{path}]" if path else ""
            lines.append(
                f"  month {alert.get('index')}: {alert.get('severity')} "
                f"{alert.get('rule')} {alert.get('metric')} = "
                f"{alert.get('value')}{suffix}"
            )
    else:
        lines.append("alerts: none")
    if status.flight is not None:
        events = status.flight.get("events", [])
        lines.append(
            f"CRASH: flight record present — {status.flight.get('reason')!r} "
            f"({len(events)} events, {status.flight.get('dropped', 0)} dropped)"
        )
    return "\n".join(lines)
