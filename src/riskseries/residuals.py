"""Residual analysis for a fitted model: e = observed - predicted.

Standardized residuals divide by the global residual scale
sqrt(RSS / (n-1)), the convention spreadsheet residual output uses; the
regression standard error sqrt(RSS / (n-k)) is reported alongside.
Percentiles follow the probability-plot rule 100*(2k-1)/(2n) over the
sorted observed values.
"""
from __future__ import annotations

import math

import numpy as np

from ._record import Record
from .autoreg import ARModel, predictions
from .errors import UsageError
from .series import TimeSeries
from .trend import TrendLine, _line_values

DEFAULT_OUTLIER_THRESHOLD = 3.0


class ResidualReport(Record, eq=False):
    """Residual columns of one fit; entry k is observation k + 1 of the fit.

    Every column is a read-only numpy array: float64 except the bool
    ``outlier``.
    """

    y: np.ndarray
    y_predicted: np.ndarray
    residual: np.ndarray
    standardized: np.ndarray
    percentile: np.ndarray
    outlier: np.ndarray
    scale: float                  # sqrt(RSS / (n-1)), standardization divisor
    regression_std_error: float   # sqrt(RSS / (n-k))
    outlier_threshold: float


def _percentiles(n: int) -> np.ndarray:
    k = np.arange(1, n + 1)
    return 100.0 * (2 * k - 1) / (2 * n)


def percentile_column(n: int) -> tuple[float, ...]:
    """Probability-plot percentiles: entry k is 100*(2k-1)/(2n)."""
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise UsageError(f"n must be a positive integer, got {n!r}")
    return tuple(_percentiles(n).tolist())


def _observed_and_predicted(model, series: TimeSeries):
    if isinstance(model, ARModel):
        observed, predicted = predictions(model, series)
        return observed, predicted, model.p + 1
    if isinstance(model, TrendLine):
        return series.values, _line_values(model, series), 2
    raise UsageError(f"unsupported model type {type(model).__name__}")


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def residual_analysis(
    model,
    series: TimeSeries,
    outlier_threshold: float = DEFAULT_OUTLIER_THRESHOLD,
) -> ResidualReport:
    """Residual report of an ARModel or TrendLine on its fitting series."""
    if not outlier_threshold > 0.0:
        raise UsageError(f"outlier threshold must be positive, got {outlier_threshold!r}")
    observed, predicted, n_params = _observed_and_predicted(model, series)
    n = len(observed)
    residual = observed - predicted
    rss = math.fsum(memoryview(residual * residual))
    scale = math.sqrt(rss / (n - 1)) if n > 1 else 0.0
    regression_std_error = math.sqrt(rss / (n - n_params)) if n > n_params else 0.0
    # An exact fit leaves only float noise in the residuals; standardizing
    # against that noise would be meaningless, so such fits degenerate.
    value_scale = float(np.abs(observed).max()) if n else 0.0
    if scale <= 1e-12 * value_scale:
        scale = 0.0
        regression_std_error = 0.0
    if scale > 0.0:
        standardized = residual / scale
        outlier = np.abs(standardized) > outlier_threshold
    else:
        # Perfect fit: no spread to standardize against, nothing flagged.
        standardized = np.zeros(n)
        outlier = np.zeros(n, dtype=bool)
    return ResidualReport(
        y=_read_only(observed),
        y_predicted=_read_only(predicted),
        residual=_read_only(residual),
        standardized=_read_only(standardized),
        percentile=_read_only(_percentiles(n)),
        outlier=_read_only(outlier),
        scale=scale,
        regression_std_error=regression_std_error,
        outlier_threshold=outlier_threshold,
    )


def plot_data(report: ResidualReport):
    """Point sets for the residual plot and the probability plot.

    Returns (residual_points, probability_points): predicted vs residual
    in fit order, and percentile vs sorted observed value.
    """
    if len(report.y) == 0:
        raise UsageError("cannot build plot data from an empty report")
    residual_points = tuple(zip(report.y_predicted.tolist(), report.residual.tolist()))
    probability_points = tuple(zip(report.percentile.tolist(), sorted(report.y.tolist())))
    return residual_points, probability_points
