"""repro.monitor — streaming drift detection, alerting and exporters.

The online half of the observability stack (``repro.telemetry`` is the
recording half): O(1)-state streaming detectors watch the per-month
quality series and registry counters, a :class:`MonitorHub` turns rule
breaches into structured :class:`Alert` records (logged, counted and
appended to a JSONL alert log), and exporters publish the metrics
registry as Prometheus text exposition or JSON Lines.  See
``docs/monitoring.md`` for detector math, the default ruleset and the
file formats.

Quick tour
----------
>>> from repro.monitor import EWMADetector, MonitorHub, AlertRule
>>> hub = MonitorHub([AlertRule(
...     name="demo", metric="series",
...     detector_factory=lambda: EWMADetector(warmup=2, threshold_sigma=3.0),
... )])
>>> for index, value in enumerate([1.0, 1.1, 0.9, 1.0, 25.0]):
...     _ = hub.observe("series", value, index)
>>> [alert.index for alert in hub.alerts]
[4]
"""

from repro import _lazy

__getattr__, __dir__, __all__ = _lazy.attach(
    __name__,
    {
        "repro.monitor.alerts": (
            "SEVERITIES",
            "Alert",
            "AlertRule",
            "alert_log_path_for",
            "append_alert",
            "load_alert_log",
            "write_alert_log",
        ),
        "repro.monitor.defaults": (
            "default_ruleset",
            "hierarchical_ruleset",
            "population_ruleset",
            "paper_wchd_trend",
        ),
        "repro.monitor.detectors": (
            "CUSUMDetector",
            "Decision",
            "Detector",
            "EWMADetector",
            "StaticThresholdDetector",
            "TrendBandDetector",
        ),
        "repro.monitor.exporters": (
            "DEFAULT_NAMESPACE",
            "PROMETHEUS_CONTENT_TYPE",
            "ROLLUP_EXPORT_STATS",
            "MetricsJSONLSink",
            "prometheus_name",
            "render_prometheus",
            "write_metrics_jsonl",
            "write_prometheus",
        ),
        "repro.monitor.heartbeat": (
            "SnapshotEmitter",
            "current_rss_kb",
            "heartbeat_path_for",
        ),
        "repro.monitor.hub": (
            "RATE_PREFIX",
            "ROLLUP_PREFIX",
            "MonitorHub",
            "parse_rollup_metric",
        ),
        "repro.monitor.replay": ("render_alert_timeline", "replay_campaign"),
        "repro.monitor.status": (
            "CampaignStatus",
            "load_status",
            "read_jsonl_tolerant",
            "render_status",
        ),
    },
)
