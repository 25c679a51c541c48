"""PUF quality metrics (paper Sections IV-A/B/C).

* :mod:`repro.metrics.hamming` — Hamming distance/weight families:
  FHD, within-class HD, between-class HD, fractional HW.
* :mod:`repro.metrics.entropy` — min-entropy: PUF entropy (uniqueness,
  across devices) and noise entropy (randomness, across repeated
  measurements of one device).
* :mod:`repro.metrics.stability` — one-probabilities and the
  stable-cell ratio.
* :mod:`repro.metrics.histograms` — Fig. 5 style distribution
  summaries.
* :mod:`repro.metrics.summary` — Table I style aggregation: AVG/WC over
  devices, relative change and geometric monthly change.
"""

from repro import _lazy

__getattr__, __dir__, __all__ = _lazy.attach(
    __name__,
    {
        "repro.metrics.entropy": (
            "min_entropy_bits",
            "noise_min_entropy",
            "noise_min_entropy_from_counts",
            "puf_min_entropy",
        ),
        "repro.metrics.hamming": (
            "between_class_hd",
            "fractional_hamming_distance",
            "fractional_hamming_weight",
            "fractional_hamming_weight_from_counts",
            "hamming_distance",
            "within_class_hd",
            "within_class_hd_from_counts",
        ),
        "repro.metrics.histograms": ("HistogramSummary", "fractional_histogram"),
        "repro.metrics.spatial": (
            "aliasing_extremes",
            "autocorrelation",
            "bit_aliasing",
            "neighbourhood_correlation",
            "uniformity",
        ),
        "repro.metrics.stability": (
            "one_probabilities_from_counts",
            "stable_cell_mask",
            "stable_cell_ratio",
            "stable_cell_ratio_from_counts",
        ),
        "repro.metrics.summary": (
            "MetricSummary",
            "QualityReport",
            "geometric_monthly_change",
        ),
    },
)
