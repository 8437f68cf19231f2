"""Autoregression by least squares on a lagged design, plus order selection.

AR(p) here is nothing but a multiple regression of the series on p
shifted copies of itself: the dependent vector starts at position p+1,
lag column i is the series shifted down by i rows, and trailing shifted
values that would run past the end of the table are never used. Lags are
positional over the event series, not calendar slots; run a zero-filled
POT extraction first if calendar lags are wanted.

Order selection follows the top-down rule over the fits AR(1)..AR(max_p):
start at the largest order, test Z = b_p / S(b_p) against the two-sided
normal threshold Z_alpha, drop the highest lag while
-Z_alpha <= Z <= Z_alpha, and stop at the first rejection.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import linreg
from .dist import normal_quantile
from .errors import NumericalError, UsageError
from .series import TimeSeries

# Conventional two-sided thresholds; other levels fall back to the
# normal quantile. The 0.02 entry follows the published convention this
# module reproduces.
Z_ALPHA_TABLE = {0.1: 1.645, 0.05: 1.960, 0.02: 2.236, 0.01: 2.576, 0.001: 3.291}

KEEP = "keep"
DROP = "drop"

RAW = "raw"
DETRENDED = "detrended"


@dataclass(frozen=True, eq=False)
class LaggedDesign:
    p: int
    y: np.ndarray
    lag_columns: tuple[np.ndarray, ...]  # column i-1 holds y_{t-i}


@dataclass(frozen=True)
class ARModel:
    p: int
    b0: float
    b: tuple[float, ...]
    report: linreg.RegressionReport
    fitted_on: str = RAW


@dataclass(frozen=True)
class OrderSelectionStep:
    p: int
    coefficient: float
    std_error: float
    z: float
    z_alpha: float
    decision: str


@dataclass(frozen=True)
class OrderSelectionTrace:
    steps: tuple[OrderSelectionStep, ...]
    selected_order: int
    alpha: float


def minimum_length(p: int) -> int:
    # p lost rows + p+1 parameters + 1 residual degree of freedom
    return 2 * p + 2


def build_lagged_design(values: Sequence[float], p: int) -> LaggedDesign:
    """Shifted-copy design: y = values[p:], lag i = values shifted by i."""
    if isinstance(p, bool) or not isinstance(p, int) or p < 1:
        raise UsageError(f"lag order must be a positive integer, got {p!r}")
    values = np.asarray(values, dtype=np.float64)
    n = len(values)
    if n < minimum_length(p):
        raise UsageError(
            f"lag order {p} needs at least {minimum_length(p)} values, got {n}"
        )
    y = values[p:]
    lag_columns = tuple(values[p - i:n - i] for i in range(1, p + 1))
    return LaggedDesign(p=p, y=y, lag_columns=lag_columns)


def fit_ar(series: TimeSeries, p: int, fitted_on: str = RAW) -> ARModel:
    """AR(p) by OLS on the lagged design; a thin wrapper over fit_ols."""
    design = build_lagged_design(series.values, p)
    report = linreg.fit_ols(design.y, list(design.lag_columns))
    return ARModel(
        p=p,
        b0=report.coefficients[0].estimate,
        b=tuple(c.estimate for c in report.coefficients[1:]),
        report=report,
        fitted_on=fitted_on,
    )


def predictions(model: ARModel, series: TimeSeries) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """(observed, predicted) pairs of the model on its own fitting data."""
    design = build_lagged_design(series.values, model.p)
    if len(design.y) != model.report.n:
        raise UsageError(
            f"model was fitted on {model.report.n} rows, series yields {len(design.y)}"
        )
    lag_columns = [column.tolist() for column in design.lag_columns]
    fitted = tuple(
        model.b0 + math.fsum(model.b[i] * lag_columns[i][row] for i in range(model.p))
        for row in range(len(design.y))
    )
    return tuple(design.y.tolist()), fitted


def z_alpha_threshold(alpha: float) -> float:
    if not 0.0 < alpha < 1.0:
        raise UsageError(f"alpha must be in (0, 1), got {alpha!r}")
    table_value = Z_ALPHA_TABLE.get(alpha)
    if table_value is not None:
        return table_value
    return normal_quantile(1.0 - alpha / 2.0)


def select_order(models: Sequence[ARModel], alpha: float = 0.05) -> OrderSelectionTrace:
    """Drop the highest lag while its Z statistic is inside [-Z_alpha, Z_alpha].

    ``models`` are the AR(1)..AR(max_p) fits of one series, in order; the
    selection only reads them. A tie |Z| == Z_alpha does not reject, so
    the lag is dropped. The trace records one step per examined order,
    highest first; only the final step can be a keep.
    """
    if not models:
        raise UsageError("order selection needs at least the AR(1) fit")
    for i, model in enumerate(models, start=1):
        if model.p != i:
            raise UsageError(
                f"order selection needs AR(1)..AR(p) in order, got AR({model.p}) at position {i}"
            )
    threshold = z_alpha_threshold(alpha)
    steps = []
    selected = 0
    for model in reversed(models):
        highest = model.report.coefficients[-1]
        z = highest.t_stat
        decision = KEEP if abs(z) > threshold else DROP
        steps.append(
            OrderSelectionStep(
                p=model.p,
                coefficient=highest.estimate,
                std_error=highest.std_error,
                z=z,
                z_alpha=threshold,
                decision=decision,
            )
        )
        if decision == KEEP:
            selected = model.p
            break
    return OrderSelectionTrace(steps=tuple(steps), selected_order=selected, alpha=alpha)


def lag_correlation(series: TimeSeries, lag: int) -> float:
    """Pearson correlation of the series with itself shifted by ``lag``.

    The overlapping pairs are exactly the AR(lag) design's dependent
    vector and its deepest lag column.
    """
    if isinstance(lag, bool) or not isinstance(lag, int) or lag < 0:
        raise UsageError(f"lag must be a non-negative integer, got {lag!r}")
    values = series.values.tolist()
    n = len(values)
    if n - lag < 3:
        raise UsageError(
            f"lag {lag} leaves {max(n - lag, 0)} overlapping pairs, need at least 3"
        )
    a = values[lag:]
    b = values[:n - lag]
    m = len(a)
    mean_a = math.fsum(a) / m
    mean_b = math.fsum(b) / m
    cov = math.fsum((x - mean_a) * (y - mean_b) for x, y in zip(a, b))
    var_a = math.fsum((x - mean_a) ** 2 for x in a)
    var_b = math.fsum((y - mean_b) ** 2 for y in b)
    if var_a <= 0.0 or var_b <= 0.0:
        raise NumericalError("lag correlation is undefined for a constant segment")
    return cov / math.sqrt(var_a * var_b)
