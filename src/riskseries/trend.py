"""Linear trend estimation, detrending and the Mann-Kendall trend test.

The trend line is ordinary least squares of value on observation number
1..n, so gapped indices are renumbered before fitting; detrending
subtracts the fitted line on the same convention. Mann-Kendall is the
standard rank test: S counts concordant minus discordant pairs, the
variance carries the tie correction, and the test statistic uses the
continuity-corrected normal approximation.

S is not counted pair by pair. One ``np.unique`` gives dense ranks and
the tie-group sizes; S follows from the number of strict inversions,
which a bottom-up merge over the ranks counts in log2(n) levels
(Knight, JASA 61 (1966) 436-439). The ranks are padded to a power of
two, so each level is one (blocks x 2w) array: one ``searchsorted``
counts its inversions and one row-wise sort merges it, whatever the
number of blocks. A level costs O(n log n), so the whole is
O(n log^2 n): about 3 ms at n = 1e4 and 37 ms at n = 1e5 for untied
values on a 2-vCPU machine, where a pairwise loop takes 4 s at
n = 1e4. On short series the few numpy calls per level are most of
the cost: about 40-60 us for 30-120 values.
"""
from __future__ import annotations

import math

import numpy as np

from . import linreg
from ._record import Record
from .dist import _check_alpha
from .errors import UsageError
from .series import TimeSeries

INCREASING = "increasing"
DECREASING = "decreasing"
NO_TREND = "no-trend"


class TrendLine(Record):
    """value ~ intercept + slope * observation_number."""

    intercept: float
    slope: float
    n: int


class MKResult(Record):
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
    # The solve alone: no command prints the line's standard errors or p-values.
    intercept, slope = linreg._solve(series.values, [numbers]).coef.tolist()
    return TrendLine(intercept=intercept, slope=slope, n=len(series))


def _line_values(line: TrendLine, series: TimeSeries) -> np.ndarray:
    """The fitted line at observation numbers 1..n of the series it was fitted on."""
    if line.n != len(series):
        raise UsageError(
            f"trend line was fitted on {line.n} observations, series has {len(series)}"
        )
    return line.intercept + line.slope * np.arange(1.0, len(series) + 1)


def detrend(series: TimeSeries, line: TrendLine) -> TimeSeries:
    """Subtract the fitted line at observation numbers 1..n; indices stay."""
    return TimeSeries(indices=series.indices, values=series.values - _line_values(line, series))


def _mk_s_and_variance(values: np.ndarray) -> tuple[int, float]:
    """Exact S and tie-corrected var(S), with ties counted once by np.unique.

    S = n(n-1)/2 - sum t(t-1)/2 - 2D over tie groups of size t, where D is
    the number of strict inversions (i < j, x_i > x_j). D is counted by a
    bottom-up merge over dense ranks 0..k-1, padded at the end to a power
    of two with rank k, which is above every other rank and adds no
    inversion. At block width w the ranks are a (rows x 2w) array whose
    row i holds a sorted left and a sorted right block. Adding i * (k + 1)
    to row i makes the left halves one sorted sequence, and a single
    ``searchsorted(side="right")`` of the offset right halves into it
    finds, for each right element, its row's block end (i + 1) * w less
    the number of its left-block elements greater than it. Those block
    ends sum to w^2 * rows * (rows + 1) / 2 over all right elements, so D
    gains that less the sum of the search results. One row-wise sort
    then merges every pair of blocks for the next width.
    """
    n = len(values)
    _, ranks, ties = np.unique(values, return_inverse=True, return_counts=True)
    k = len(ties)
    size = 1 << max(n - 1, 0).bit_length()
    merged = np.full(size, k)
    merged[:n] = ranks
    inversions = 0
    width = 1
    while width < size:
        rows = size // (2 * width)
        blocks = merged.reshape(rows, 2 * width)
        offsets = np.arange(0, rows * (k + 1), k + 1).reshape(rows, 1)
        left = (blocks[:, :width] + offsets).ravel()
        not_greater = np.searchsorted(left, blocks[:, width:] + offsets, side="right")
        inversions += width * width * rows * (rows + 1) // 2 - int(not_greater.sum())
        blocks.sort(axis=1)
        width *= 2
    tie_sizes = ties.tolist()
    s = n * (n - 1) // 2 - sum(t * (t - 1) // 2 for t in tie_sizes) - 2 * inversions
    var = n * (n - 1) * (2 * n + 5)
    for t in tie_sizes:
        var -= t * (t - 1) * (2 * t + 5)
    return s, var / 18.0


def mann_kendall(series: TimeSeries, alpha: float = 0.05) -> MKResult:
    """Two-sided Mann-Kendall test for monotone trend at level alpha."""
    if len(series) < 4:
        raise UsageError(f"Mann-Kendall needs at least 4 observations, got {len(series)}")
    _check_alpha(alpha)
    s, var_s = _mk_s_and_variance(series.values)
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
