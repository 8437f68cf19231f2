"""Residual analysis for a fitted model: e = observed - predicted.

Standardized residuals divide by the global residual scale
sqrt(RSS / (n-1)), the convention spreadsheet residual output uses; the
regression standard error sqrt(RSS / (n-k)) is reported alongside.
Percentiles follow the probability-plot rule 100*(2k-1)/(2n) over the
sorted observed values.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .autoreg import ARModel, predictions
from .errors import UsageError
from .series import TimeSeries
from .trend import TrendLine

DEFAULT_OUTLIER_THRESHOLD = 3.0


@dataclass(frozen=True)
class ResidualRow:
    observation_id: int
    y: float
    y_predicted: float
    residual: float
    standardized: float
    percentile: float
    outlier: bool


@dataclass(frozen=True)
class ResidualReport:
    rows: tuple[ResidualRow, ...]
    scale: float                  # sqrt(RSS / (n-1)), standardization divisor
    regression_std_error: float   # sqrt(RSS / (n-k))
    outlier_threshold: float


def percentile_column(n: int) -> tuple[float, ...]:
    """Probability-plot percentiles: entry k is 100*(2k-1)/(2n)."""
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise UsageError(f"n must be a positive integer, got {n!r}")
    return tuple(100.0 * (2 * k - 1) / (2 * n) for k in range(1, n + 1))


def _observed_and_predicted(model, series: TimeSeries):
    if isinstance(model, ARModel):
        observed, predicted = predictions(model, series)
        return observed, predicted, model.p + 1
    if isinstance(model, TrendLine):
        if model.source_n != len(series):
            raise UsageError(
                f"trend line was fitted on {model.source_n} observations, "
                f"series has {len(series)}"
            )
        t = np.arange(1.0, len(series) + 1)
        predicted = model.intercept + model.slope * t
        return series.values.tolist(), predicted.tolist(), 2
    raise UsageError(f"unsupported model type {type(model).__name__}")


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
    residuals = tuple(y - y_hat for y, y_hat in zip(observed, predicted))
    rss = math.fsum(e * e for e in residuals)
    scale = math.sqrt(rss / (n - 1)) if n > 1 else 0.0
    regression_std_error = math.sqrt(rss / (n - n_params)) if n > n_params else 0.0
    # An exact fit leaves only float noise in the residuals; standardizing
    # against that noise would be meaningless, so such fits degenerate.
    value_scale = max((abs(y) for y in observed), default=0.0)
    if scale <= 1e-12 * max(value_scale, 1.0):
        scale = 0.0
        regression_std_error = 0.0
    percentiles = percentile_column(n)
    rows = []
    for k in range(n):
        if scale > 0.0:
            standardized = residuals[k] / scale
            outlier = abs(standardized) > outlier_threshold
        else:
            # Perfect fit: no spread to standardize against, nothing flagged.
            standardized = 0.0
            outlier = False
        rows.append(
            ResidualRow(
                observation_id=k + 1,
                y=observed[k],
                y_predicted=predicted[k],
                residual=residuals[k],
                standardized=standardized,
                percentile=percentiles[k],
                outlier=outlier,
            )
        )
    return ResidualReport(
        rows=tuple(rows),
        scale=scale,
        regression_std_error=regression_std_error,
        outlier_threshold=outlier_threshold,
    )


def plot_data(report: ResidualReport):
    """Point sets for the residual plot and the probability plot.

    Returns (residual_points, probability_points): predicted vs residual
    in fit order, and percentile vs sorted observed value.
    """
    if len(report.rows) == 0:
        raise UsageError("cannot build plot data from an empty report")
    residual_points = tuple((row.y_predicted, row.residual) for row in report.rows)
    sorted_y = sorted(row.y for row in report.rows)
    probability_points = tuple(
        (row.percentile, y) for row, y in zip(report.rows, sorted_y)
    )
    return residual_points, probability_points
