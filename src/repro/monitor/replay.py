"""Offline monitoring: replay saved campaigns through a hub.

Past campaigns (persisted by
:func:`repro.io.resultstore.save_campaign`) can be screened with
today's ruleset — the ``repro monitor`` CLI subcommand is a thin shell
over :func:`replay_campaign` plus :func:`render_alert_timeline`.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.monitor.alerts import Alert
from repro.monitor.hub import MonitorHub


def replay_campaign(
    result, hub: MonitorHub, rollup_shards: Optional[int] = None
) -> List[Alert]:
    """Feed every snapshot of a finished campaign through ``hub``.

    ``result`` is a :class:`~repro.analysis.campaign.CampaignResult`
    (duck-typed: anything with ``snapshots``).  Returns the alerts the
    replay emitted, in emission order.

    When the hub carries hierarchical ``rollup:`` rules, shard rollups
    are rebuilt from each snapshot's per-board statistics by the live
    campaign's own :func:`~repro.telemetry.rollup.evaluation_shard_docs`
    (boards split by fleet position, whatever their ids), so replayed
    hierarchical alert sequences match the live run's.
    ``rollup_shards`` overrides the shard count (default:
    ``min(8, fleet size)``, the live campaign's auto choice).
    """
    emitted: List[Alert] = []
    rebuild = hub.rollup_rule_count > 0 and len(result.snapshots) > 0
    if rebuild:
        from repro.telemetry.rollup import evaluation_shard_docs, fold_rollup_docs
        from repro.telemetry.runtime import get_rollups

        fleet = len(result.snapshots[0].board_ids)
        shards = rollup_shards if rollup_shards else min(8, fleet)
        rollups = get_rollups()
    for index, snapshot in enumerate(result.snapshots):
        if rebuild:
            fold_rollup_docs(rollups, evaluation_shard_docs(snapshot, shards))
            emitted += hub.observe_rollups(index=index)
        emitted += hub.observe_evaluation(snapshot)
    return emitted


def render_alert_timeline(
    alerts: Sequence[Alert], months: Optional[int] = None
) -> str:
    """Text timeline of alerts, one row per alert, month-ordered.

    ``months`` adds a header line stating the screened range even when
    no alerts fired.
    """
    lines: List[str] = []
    if months is not None:
        lines.append(f"alert timeline over months 0..{months}:")
    if not alerts:
        lines.append("(no alerts)")
        return "\n".join(lines)
    lines += [
        f"{'month':>5}  {'severity':<9} {'rule':<22} {'metric':<26} "
        f"{'value':>10}  detail",
        "-" * 100,
    ]
    for alert in sorted(alerts, key=lambda a: (a.index, a.rule)):
        lines.append(
            f"{alert.index:>5}  {alert.severity:<9} {alert.rule:<22} "
            f"{alert.metric:<26} {alert.value:>10.6g}  {alert.detail}"
        )
    return "\n".join(lines)
