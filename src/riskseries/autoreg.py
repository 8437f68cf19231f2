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
import sys
from typing import Iterator, Sequence

import numpy as np

from . import linreg
from ._record import Record
from .dist import _check_alpha, _check_count, normal_quantile
from .errors import NumericalError, UsageError
from .series import TimeSeries

# Conventional two-sided thresholds; other levels fall back to the
# normal quantile. The 0.02 entry follows the published convention this
# module reproduces.
Z_ALPHA_TABLE = {0.1: 1.645, 0.05: 1.960, 0.02: 2.236, 0.01: 2.576, 0.001: 3.291}

# At or below it, 1 - alpha/2 rounds to 1.0 and the normal quantile is infinite.
_ALPHA_FLOOR = 2.0 ** -53

KEEP = "keep"
DROP = "drop"

RAW = "raw"
DETRENDED = "detrended"


class ARModel(Record):
    p: int
    b0: float
    b: tuple[float, ...]
    report: linreg.RegressionReport
    fitted_on: str = RAW


class OrderSelectionStep(Record):
    p: int
    coefficient: float
    std_error: float
    z: float
    z_alpha: float
    decision: str


class OrderSelectionTrace(Record):
    alpha: float
    selected_order: int
    steps: tuple[OrderSelectionStep, ...]


def minimum_length(p: int) -> int:
    # p lost rows + p+1 parameters + 1 residual degree of freedom
    return 2 * p + 2


def max_order(n: int) -> int:
    """The highest AR order a series of n values can fit (minimum_length inverted)."""
    return (n - 2) // 2


def check_length(p: int, n: int):
    """Raise the usage error of an AR(p) fit on n values, if n is too few."""
    if n < minimum_length(p):
        raise UsageError(
            f"lag order {p} needs at least {minimum_length(p)} values, got {n}"
        )


def build_lagged_design(
    values: Sequence[float], p: int
) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """The shifted-copy design ``(y, lag_columns)``.

    y is ``values[p:]``, and ``lag_columns[i - 1]`` is y_{t-i}: the values
    shifted down by i.
    """
    _check_count(p, "lag order")
    values = np.asarray(values, dtype=np.float64)
    n = len(values)
    check_length(p, n)
    return values[p:], tuple(values[p - i:n - i] for i in range(1, p + 1))


def fit_ar(series: TimeSeries, p: int, fitted_on: str = RAW) -> ARModel:
    """AR(p) by OLS on the lagged design; a thin wrapper over fit_ols."""
    y, lag_columns = build_lagged_design(series.values, p)
    report = linreg.fit_ols(y, list(lag_columns), _moments=series._moments(p, len(series)))
    return ARModel(
        p=p,
        b0=report.coefficients[0].estimate,
        b=tuple(c.estimate for c in report.coefficients[1:]),
        report=report,
        fitted_on=fitted_on,
    )


def fit_orders(
    series: TimeSeries, max_lag: int, fitted_on: str = RAW
) -> Iterator[tuple[int, ARModel | UsageError | NumericalError]]:
    """The order search: (p, AR(p) fit) for p = 1..max_lag of one series.

    Each fit is the order's model or the error it raised, and runs only
    when the caller asks for the next pair, so a caller that stops at an
    error fits no higher order. Orders above max_order(n) cannot fit:
    those up to it are tried (always AR(1)), then max_lag alone, whose
    length error stands for every order above the cap, so the number of
    pairs follows n, not max_lag.
    """
    top = min(max_lag, max(max_order(len(series)), 1))
    for p in list(range(1, top + 1)) + ([max_lag] if max_lag > top else []):
        try:
            yield p, fit_ar(series, p, fitted_on=fitted_on)
        except (UsageError, NumericalError) as exc:
            yield p, exc


def predictions(model: ARModel, series: TimeSeries) -> tuple[np.ndarray, np.ndarray]:
    """(observed, predicted) columns of the model on its own fitting data."""
    y, lag_columns = build_lagged_design(series.values, model.p)
    if len(y) != model.report.n:
        raise UsageError(f"model was fitted on {model.report.n} rows, series yields {len(y)}")
    if model.p <= 2:
        # An fsum of one or two floats is one correctly rounded add, so this
        # sum has its bits; starting from +0.0 gives fsum's +0.0 for a zero sum.
        total = np.zeros(len(y))
        for b, column in zip(model.b, lag_columns):
            total += b * column
    else:
        # fsum of three or more products rounds once and numpy rounds after
        # every add, so higher orders keep one fsum per row and its bits.
        # Python's float product overflows to inf silently; so does this one.
        with np.errstate(over="ignore"):
            products = np.column_stack(lag_columns) * np.array(model.b)
        total = np.fromiter(map(math.fsum, products.tolist()), float, len(y))
    return y, model.b0 + total


def z_alpha_threshold(alpha: float) -> float:
    """The two-sided normal threshold Z_alpha; also the check of an order search's alpha."""
    _check_alpha(alpha)
    if alpha <= _ALPHA_FLOOR:
        raise UsageError(
            f"alpha must be greater than 2**-53 = {_ALPHA_FLOOR!r}, got {alpha!r}: "
            "1 - alpha/2 would round to 1"
        )
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
    return OrderSelectionTrace(alpha=alpha, selected_order=selected, steps=tuple(steps))


def lag_correlation(series: TimeSeries, lag: int) -> float:
    """Pearson correlation of the series with itself shifted by ``lag``.

    The overlapping pairs are exactly the AR(lag) design's dependent
    vector and its deepest lag column, so the means and sums of squares
    of ``values[lag:]`` are those the AR(lag) fit took.
    """
    if isinstance(lag, bool) or not isinstance(lag, int) or lag < 0:
        raise UsageError(f"lag must be a non-negative integer, got {lag!r}")
    n = len(series)
    if n - lag < 3:
        raise UsageError(
            f"lag {lag} leaves {max(n - lag, 0)} overlapping pairs, need at least 3"
        )
    a = series._moments(lag, n)
    b = series._moments(0, n - lag)
    # Differences and products round alike in numpy and in Python, and
    # the sums of squares square through libm's pow, as ``** 2`` does.
    # Finite variances bound every product, so the covariance cannot overflow.
    # Each slice's deviations are taken once, for its sum of squares (if
    # not yet kept) and for the covariance.
    deviation_a = a.deviations()
    deviation_b = b.deviations()
    var_a = a.sum_of_squares(deviation_a)
    var_b = b.sum_of_squares(deviation_b)
    cov = math.fsum(memoryview(deviation_a * deviation_b))
    if var_a <= 0.0 or var_b <= 0.0:
        raise NumericalError("lag correlation is undefined for a constant segment")
    product = var_a * var_b
    if not sys.float_info.min <= product < math.inf:
        # The product overflowed or lost its precision to underflow; two
        # square roots stay in range.
        return cov / (math.sqrt(var_a) * math.sqrt(var_b))
    return cov / math.sqrt(product)
