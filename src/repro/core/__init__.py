"""The paper-facing API.

* :mod:`repro.core.config` — :class:`StudyConfig`, the one-object
  description of an assessment run.
* :mod:`repro.core.paper` — the published numbers (Table I, figure
  ranges, setup constants) as structured constants.
* :mod:`repro.core.calibration` — solves simulator parameters from
  target statistics (how the shipped profiles were derived).
* :mod:`repro.core.assessment` — :class:`LongTermAssessment`, the
  headline orchestrator.
* :mod:`repro.core.report` — Table I construction and rendering.
"""

from repro import _lazy

__getattr__, __dir__, __all__ = _lazy.attach(
    __name__,
    {
        "repro.core.assessment": ("AssessmentResult", "LongTermAssessment"),
        "repro.core.calibration": (
            "CalibrationTargets",
            "calibrate_aging",
            "calibrate_skew_distribution",
            "predicted_initial_metrics",
        ),
        "repro.core.config": ("StudyConfig",),
        "repro.core.paper": ("PAPER", "PaperFacts"),
        "repro.core.report": ("build_quality_report",),
    },
)
