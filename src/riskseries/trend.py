"""Linear trend estimation, detrending and the Mann-Kendall trend test.

The trend line is ordinary least squares of value on observation number
1..n, so gapped indices are renumbered before fitting; detrending
subtracts the fitted line on the same convention. Mann-Kendall is the
standard rank test: S counts concordant minus discordant pairs, the
variance carries the tie correction, and the test statistic uses the
continuity-corrected normal approximation.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from . import linreg
from .errors import UsageError
from .series import TimeSeries

INCREASING = "increasing"
DECREASING = "decreasing"
NO_TREND = "no-trend"


@dataclass(frozen=True)
class TrendLine:
    """value ~ intercept + slope * observation_number."""

    intercept: float
    slope: float
    source_n: int


@dataclass(frozen=True)
class MKResult:
    S: int
    var_S: float
    Z: float
    p_value: float
    decision: str
    alpha: float


def fit_trend(series: TimeSeries) -> TrendLine:
    if len(series) < 3:
        raise UsageError(f"trend fit needs at least 3 observations, got {len(series)}")
    numbers = np.arange(1.0, len(series) + 1)
    report = linreg.fit_ols(series.values, [numbers])
    return TrendLine(
        intercept=report.coefficients[0].estimate,
        slope=report.coefficients[1].estimate,
        source_n=len(series),
    )


def detrend(series: TimeSeries, line: TrendLine) -> TimeSeries:
    """Subtract the fitted line at observation numbers 1..n; indices stay."""
    if line.source_n != len(series):
        raise UsageError(
            f"trend line was fitted on {line.source_n} observations, series has {len(series)}"
        )
    t = np.arange(1.0, len(series) + 1)
    return TimeSeries(series.indices, series.values - (line.intercept + line.slope * t))


def _mk_statistic(values: list[float]) -> int:
    s = 0
    n = len(values)
    for i in range(n - 1):
        vi = values[i]
        for j in range(i + 1, n):
            if values[j] > vi:
                s += 1
            elif values[j] < vi:
                s -= 1
    return s


def _mk_variance(values: list[float]) -> float:
    n = len(values)
    var = n * (n - 1) * (2 * n + 5)
    for t in Counter(values).values():
        var -= t * (t - 1) * (2 * t + 5)
    return var / 18.0


def mann_kendall(series: TimeSeries, alpha: float = 0.05) -> MKResult:
    """Two-sided Mann-Kendall test for monotone trend at level alpha."""
    if len(series) < 4:
        raise UsageError(f"Mann-Kendall needs at least 4 observations, got {len(series)}")
    if not 0.0 < alpha < 1.0:
        raise UsageError(f"alpha must be in (0, 1), got {alpha!r}")
    values = series.values.tolist()
    s = _mk_statistic(values)
    var_s = _mk_variance(values)
    if s == 0 or var_s <= 0.0:
        z = 0.0
    elif s > 0:
        z = (s - 1) / math.sqrt(var_s)
    else:
        z = (s + 1) / math.sqrt(var_s)
    p_value = math.erfc(abs(z) / math.sqrt(2.0))  # = 2 * (1 - Phi(|z|))
    if p_value < alpha:
        decision = INCREASING if s > 0 else DECREASING
    else:
        decision = NO_TREND
    return MKResult(S=s, var_S=var_s, Z=z, p_value=p_value, decision=decision, alpha=alpha)
