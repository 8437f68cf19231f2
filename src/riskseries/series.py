"""Core time-series data model, descriptive statistics and reindexing.

A series is two aligned columns: integer event times (``indices``) and
finite magnitudes such as precipitation in mm (``values``). Indices may
jump (an event record keeps the time slot it occurred in). Both columns
are read-only numpy arrays owned by the series and validated once, so a
series is immutable and safe to share between threads.

A series also keeps the mean and sum of squared deviations of each slice
``values[start:stop]`` that a statistic has asked for (the summary reads
``0:n``, the AR(p) fit ``p:n``, the lag correlation ``lag:n`` and
``0:n-lag``), so one run takes each of them once. Every slice's mean comes
from one exact integer total of the series (``_exact_total``), less the
few values the slice leaves out, rounded once: the double of
``math.fsum(slice) / len(slice)``. The memo is derived state, not a field:
it is not compared, hashed, printed or pickled, and a copy takes its
moments again on first use. Two threads that fill one entry at once
compute the same bits.
"""
from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from ._record import Record
from .errors import DataError


_INDEX_MAX = int(np.iinfo(np.int64).max)


def _column(data, dtype, name: str) -> np.ndarray:
    column = np.asarray(data)
    if column.ndim != 1:
        raise DataError(f"{name} must be a one-dimensional column, got shape {column.shape}")
    if dtype is np.int64 and column.dtype.kind in "uOf":
        # Python ints beyond int64 make numpy pick uint64, object or float64;
        # name the first such index as given, before any cast can wrap it.
        given = column.tolist() if isinstance(data, np.ndarray) else data
        for index in given:
            if type(index) is int and not 1 <= index <= _INDEX_MAX:
                bound = ">= 1" if index < 1 else f"<= {_INDEX_MAX}"
                raise DataError(f"observation index must be {bound}, got {index}")
    if dtype is np.int64 and column.size and column.dtype.kind not in "iu":
        # Checked before the cast, which would silently truncate 1.5 or True.
        bad = 0
        if column.dtype.kind == "f":
            bad = int(np.argmax(column != np.trunc(column)))
        raise DataError(f"observation index must be an integer, got {column.tolist()[bad]!r}")
    # A copy, so no caller can reach the series' own (read-only) arrays.
    column = np.array(column, dtype=dtype)
    column.flags.writeable = False
    return column


class TimeSeries(Record, eq=False):
    """Strictly increasing integer indices (>= 1, gaps allowed) and finite values."""

    indices: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        indices = _column(self.indices, np.int64, "indices")
        values = _column(self.values, np.float64, "values")
        if len(indices) != len(values):
            raise DataError(
                f"indices and values must have equal length, got {len(indices)} and {len(values)}"
            )
        # Checked by reductions; a mask is built only to name the culprit,
        # since masks of every series length would pile up in numpy's cache
        # of small freed blocks.
        n = len(indices)
        if n and indices.min() < 1:
            low = indices[np.argmax(indices < 1)].item()
            raise DataError(f"observation index must be >= 1, got {low}")
        if n > 1 and np.diff(indices).min() <= 0:
            k = int(np.argmax(np.diff(indices) <= 0))
            raise DataError(
                f"indices must be strictly increasing without duplicates; "
                f"index {indices[k + 1].item()} follows {indices[k].item()}"
            )
        if n and not (math.isfinite(values.min()) and math.isfinite(values.max())):
            value = values[np.argmax(~np.isfinite(values))].item()
            raise DataError(f"observation value must be finite, got {value!r}")
        object.__setattr__(self, "indices", indices)
        object.__setattr__(self, "values", values)

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[int, float]]) -> "TimeSeries":
        pairs = list(pairs)
        return cls(indices=[index for index, _ in pairs], values=[value for _, value in pairs])

    @classmethod
    def from_values(cls, values: Sequence[float]) -> "TimeSeries":
        """Build a series indexed 1..n from bare values."""
        return cls(indices=np.arange(1, len(values) + 1), values=values)

    def __len__(self) -> int:
        return len(self.values)

    def _moments(self, start: int, stop: int) -> _Moments:
        """The moments of ``values[start:stop]``, kept for the next caller."""
        memo = self.__dict__.setdefault("_memo", {})
        key = (start, stop)
        if key not in memo:
            if None not in memo:  # the series' exact total, which every slice reads
                memo[None] = _exact_total(self.values)
            exact = _slice_total(self.values, memo[None], start, stop)
            memo[key] = _Moments(self.values[start:stop], exact)
        return memo[key]


# Each mantissa, scaled to [2^26, 2^27) in magnitude, is summed per exponent
# as its integer part and its fraction of 26 bits: both sums are exact in
# float64 for fewer than 2^26 values, so the rows are taken in blocks.
_EXACT_ROWS = 1 << 26


def _exact_total(values: np.ndarray) -> tuple[int, int, int]:
    """``(total, exponent, top)``: the sum of a float64 column is exactly
    ``total * 2.0 ** exponent``, and every value's magnitude is below
    ``2.0 ** top``.

    ``np.frexp`` gives each double as ``m * 2**e`` with ``0.5 <= |m| < 1``, so
    ``m * 2**53`` is an integer. With ``low`` the least exponent, each value
    is that integer shifted left by ``e - low``, in units of ``2**(low - 53)``.
    ``np.bincount`` sums ``m * 2**27`` per shift, as integer parts and as
    fractions, and Python ints add up the buckets (Neal, "Fast exact
    summation using small and large superaccumulators", 2015).
    """
    mantissas, exponents = np.frexp(values)
    low = int(exponents.min()) if len(values) else 0
    shifts = exponents - low
    mantissas *= 2.0 ** 27
    wholes = np.trunc(mantissas)
    fractions = mantissas - wholes  # np.modf gives the same, several times slower
    total = width = 0
    for start in range(0, len(values), _EXACT_ROWS):
        rows = slice(start, start + _EXACT_ROWS)
        whole_sums = np.bincount(shifts[rows], weights=wholes[rows]).tolist()
        fraction_sums = np.bincount(shifts[rows], weights=fractions[rows]).tolist()
        for shift, (whole, fraction) in enumerate(zip(whole_sums, fraction_sums)):
            if whole or fraction:
                total += ((int(whole) << 26) + int(fraction * 2.0 ** 26)) << shift
        width = max(width, len(whole_sums))
    return total, low - 53, low + width - 1


def _slice_total(values: np.ndarray, exact: tuple[int, int, int], start: int,
                 stop: int) -> tuple[int, int, int]:
    """The exact total of ``values[start:stop]`` in the units of ``exact``,
    the column's own: that total less the values the slice leaves out.
    ``top`` stays the column's bound.

    Every value's exponent is at least the column's least, so each is an
    integer in the total's units.
    """
    total, exponent, top = exact
    for i in (*range(start), *range(stop, len(values))):
        mantissa, power = math.frexp(values.item(i))
        total -= int(mantissa * 2.0 ** 53) << (power - 53 - exponent)
    return total, exponent, top


def _rounded(total: int, exponent: int) -> float:
    """``total * 2.0 ** exponent`` rounded once to the nearest double.

    A total beyond the largest double raises fsum's OverflowError.
    """
    try:
        return float(total << exponent) if exponent >= 0 else total / (1 << -exponent)
    except OverflowError:
        raise OverflowError("intermediate overflow in fsum") from None


def _sum_of_squares(deviations: np.ndarray, bounded: bool = False) -> float:
    """``math.fsum`` of the squares, each with the bits of Python's ``v ** 2``.

    ``np.float_power`` runs numpy's generic double loop over the C library's
    ``pow``, the function CPython's ``**`` calls; numpy's ``x * x`` rounds
    differently on some doubles. A square that overflows raises
    OverflowError, as ``**`` does, instead of warning and giving inf;
    ``bounded`` deviations are known to be below ``2**511``, so none can.
    """
    if bounded:
        return math.fsum(memoryview(np.float_power(deviations, 2.0)))
    with np.errstate(over="raise"):
        try:
            squares = np.float_power(deviations, 2.0)
        except FloatingPointError:
            raise OverflowError("a squared deviation is out of range") from None
    return math.fsum(memoryview(squares))


class _Moments:
    """The mean and sum of squared deviations of one column, each taken on first use.

    Both start from the column's ``(total, exponent, top)``: a series' slice
    is given it by ``TimeSeries._moments``, and a standalone column takes
    it from ``_exact_total``. The mean lies within the values, so every
    deviation is below ``2**(top + 1)``, which tells when none can overflow.
    A sum that raises is not kept, so the next reader raises it again.
    """

    __slots__ = ("column", "_total", "_mean", "_squares")

    def __init__(self, column: np.ndarray, total: tuple[int, int, int] | None = None):
        self.column = column
        self._total = total
        self._mean = self._squares = None

    def mean(self) -> float:
        """The exact total rounded once, over the length (the bits of
        ``math.fsum(column) / len(column)``), clamped into the column's
        range: the rounded mean of equal values can fall one ulp outside them."""
        if self._mean is None:
            column = self.column
            n = len(column)
            if self._total is None:
                self._total = _exact_total(column)
            total, exponent, _ = self._total
            mean = _rounded(total, exponent) / n
            # The clamp can move only a mean m outside [min, max], and it
            # needs the two reductions only then. The exact mean mu lies in
            # [min, max], and |m - mu| < 2 ulp(m): the division errs by at
            # most ulp(m) / 2, and the rounded total's half ulp, over n, by
            # less than ulp(m) (at most 2**-53 (|m| + ulp(m) / 2) for a
            # normal total, 2**-1075 / n for a subnormal one). If m > max,
            # every m - x is positive and together they make n (m - mu), so
            # each is below 2n ulp(m); likewise if m < min. So a first value
            # more than 2 (n + 1) ulp(m) from m proves m in range. The bound
            # is a power of two times an integer, so exact, and rounding is
            # monotone, so the float difference cannot pass it falsely.
            if abs(mean - column[0].item()) > 2 * (n + 1) * math.ulp(mean):
                self._mean = mean
            else:
                self._mean = float(min(max(mean, column.min()), column.max()))
        return self._mean

    def deviations(self) -> np.ndarray:
        """The column less its mean, taken anew on each call.

        Values and mean below ``2**1022`` differ by less than ``2**1023``;
        past that, a deviation beyond the largest double raises the
        OverflowError its square would, instead of warning and giving inf.
        """
        mean = self.mean()
        if self._total[2] <= 1022:
            return self.column - mean
        with np.errstate(over="raise"):
            try:
                return self.column - mean
            except FloatingPointError:
                raise OverflowError("a squared deviation is out of range") from None

    def sum_of_squares(self, deviations: np.ndarray | None = None) -> float:
        """The sum of squared deviations; ``deviations``, if given, are ``deviations()``'s."""
        if self._squares is None:
            if deviations is None:
                deviations = self.deviations()
            self._squares = _sum_of_squares(deviations, bounded=self._total[2] <= 510)
        return self._squares


class SummaryStats(Record):
    n: int
    mean: float
    variance: float
    std_dev: float
    min: float
    max: float


def summarize(series: TimeSeries) -> SummaryStats:
    """Descriptive statistics over the values (indices ignored).

    Variance uses the sample (n-1) divisor; a single observation gets
    variance 0.
    """
    if len(series) == 0:
        raise DataError("cannot summarize an empty series")
    values = series.values
    n = len(values)
    moments = series._moments(0, n)
    mean = moments.mean()
    variance = moments.sum_of_squares() / (n - 1) if n > 1 else 0.0
    return SummaryStats(
        n=n,
        mean=mean,
        variance=variance,
        std_dev=math.sqrt(variance),
        min=values[values.argmin()].item(),
        max=values[values.argmax()].item(),
    )


def reindex(series: TimeSeries) -> TimeSeries:
    """Renumber observations 1..n in order, keeping values."""
    if len(series) == 0:
        raise DataError("cannot reindex an empty series")
    return TimeSeries(indices=np.arange(1, len(series) + 1), values=series.values)
