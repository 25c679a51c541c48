"""Trend fitting over quality time series.

Two questions from the paper's Section IV-D need quantitative answers:

* the per-month change rates of Table I —
  :func:`monthly_rates` computes the geometric rate the paper prints;
* "the monthly change rate ... is larger at the start of the test than
  after 1 year" — :func:`fit_power_law_trend` fits the saturating
  power law ``y(t) = y0 + a * t**n`` and
  :meth:`PowerLawTrend.rate_ratio` compares early-life and late-life
  slopes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.metrics.summary import geometric_monthly_change


def monthly_rates(series: np.ndarray) -> np.ndarray:
    """Month-over-month geometric rates of a positive series."""
    values = np.asarray(series, dtype=float)
    if values.ndim != 1 or values.size < 2:
        raise ConfigurationError("need a 1-D series of at least two values")
    if values.min() <= 0:
        raise ConfigurationError("geometric rates need positive values")
    return values[1:] / values[:-1] - 1.0


@dataclass(frozen=True)
class PowerLawTrend:
    """Fit of ``y(t) = y0 + a * t**n`` to a monthly series."""

    y0: float
    amplitude: float
    exponent: float
    residual_rms: float

    def predict(self, months: np.ndarray) -> np.ndarray:
        """Evaluate the fitted trend."""
        t = np.asarray(months, dtype=float)
        return self.y0 + self.amplitude * np.power(np.maximum(t, 0.0), self.exponent)

    def slope(self, month: float) -> float:
        """Instantaneous change per month at ``month`` (> 0)."""
        if month <= 0:
            raise ConfigurationError("slope is defined for month > 0")
        return self.amplitude * self.exponent * month ** (self.exponent - 1.0)

    def rate_ratio(self, early_month: float = 1.0, late_month: float = 12.0) -> float:
        """Early-life slope over late-life slope.

        A ratio > 1 confirms the paper's observation that degradation
        decelerates; for a pure power law it equals
        ``(late / early) ** (1 - n)``.
        """
        return self.slope(early_month) / self.slope(late_month)


def fit_power_law_trend(months: np.ndarray, values: np.ndarray) -> PowerLawTrend:
    """Least-squares fit of the saturating power law to a series.

    ``months`` must start at 0 (the reference epoch); the fit is over
    ``y0`` (the month-0 level), the amplitude and the exponent.
    """
    t = np.asarray(months, dtype=float)
    y = np.asarray(values, dtype=float)
    if t.shape != y.shape or t.ndim != 1:
        raise ConfigurationError("months and values must be equal-length 1-D arrays")
    if t.size < 4:
        raise ConfigurationError("need at least 4 points to fit a 3-parameter trend")
    if t[0] != 0:
        raise ConfigurationError("months must start at 0")
    # Imported on first fit: no campaign fits trends, and every module
    # that imports this one for PowerLawTrend would pay for scipy.optimize.
    from scipy import optimize

    def model(params):
        y0, amplitude, exponent = params
        return y0 + amplitude * np.power(np.maximum(t, 1e-12), exponent)

    def residuals(params):
        return model(params) - y

    span = y[-1] - y[0]
    initial = np.array([y[0], span if span != 0 else 1e-3, 0.35])
    fit = optimize.least_squares(
        residuals, initial, bounds=([-np.inf, -np.inf, 0.01], [np.inf, np.inf, 1.0])
    )
    rms = float(np.sqrt(np.mean(fit.fun**2)))
    return PowerLawTrend(
        y0=float(fit.x[0]),
        amplitude=float(fit.x[1]),
        exponent=float(fit.x[2]),
        residual_rms=rms,
    )


def summary_monthly_rate(start: float, end: float, months: float) -> float:
    """Table I's monthly-change convention (re-exported for discoverability)."""
    return geometric_monthly_change(start, end, months)
