"""Longitudinal analysis: the paper's evaluation pipeline.

* :mod:`repro.analysis.initial` — initial quality evaluation
  (Section IV-A; Fig. 4 and Fig. 5).
* :mod:`repro.analysis.monthly` — the monthly evaluation protocol
  (Section IV-B: 1,000 consecutive measurements after midnight on the
  8th of each month).
* :mod:`repro.analysis.campaign` — the two-year campaign driver
  producing the Fig. 6 / Table I data.
* :mod:`repro.analysis.timeseries` — per-metric series extraction.
* :mod:`repro.analysis.trends` — trend fitting and change rates.
* :mod:`repro.analysis.accelerated` — the accelerated-aging
  comparison study (Section IV-D vs Maes & van der Leest, HOST 2014).
"""

from repro import _lazy

__getattr__, __dir__, __all__ = _lazy.attach(
    __name__,
    {
        "repro.analysis.accelerated": ("AcceleratedAgingStudy", "AcceleratedResult"),
        "repro.analysis.campaign": ("CampaignResult", "LongTermCampaign"),
        "repro.analysis.comparison": ("SourceComparisonStudy", "SourceSnapshot"),
        "repro.analysis.environment": ("EnvironmentStudy", "SweepPoint"),
        "repro.analysis.initial": ("InitialQualityEvaluation", "startup_pattern_image"),
        "repro.analysis.lifetime": ("LifetimePoint", "LifetimeProjection"),
        "repro.analysis.migration": (
            "CellCategory",
            "CellMigrationStudy",
            "MigrationResult",
            "classify_cells",
        ),
        "repro.analysis.monthly": ("MonthlyEvaluation", "evaluate_month"),
        "repro.analysis.reliability": (
            "CellReliabilityModel",
            "block_failure_probability",
            "key_failure_probability",
        ),
        "repro.analysis.statistics": (
            "CampaignInference",
            "ConfidenceInterval",
            "PairedChangeTest",
            "bootstrap_mean_ci",
            "paired_change_test",
        ),
        "repro.analysis.timeseries": ("MetricSeries", "QualityTimeSeries"),
        "repro.analysis.trends": (
            "fit_power_law_trend",
            "monthly_rates",
            "PowerLawTrend",
        ),
    },
)
