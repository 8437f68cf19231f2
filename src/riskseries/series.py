"""Core time-series data model, descriptive statistics and reindexing.

A series is two aligned columns: integer event times (``indices``) and
finite magnitudes such as precipitation in mm (``values``). Indices may
jump (an event record keeps the time slot it occurred in). Both columns
are read-only numpy arrays owned by the series and validated once, so a
series is immutable and safe to share between threads.

A series also keeps the fsum mean and sum of squared deviations of each
slice ``values[start:stop]`` that a statistic has asked for (the summary
reads ``0:n``, the AR(p) fit ``p:n``, the lag correlation ``lag:n`` and
``0:n-lag``), so one run takes each of them once. The memo is derived
state, not a field: it is not compared, hashed, printed or pickled, and a
copy takes its moments again on first use. Two threads that fill one
entry at once compute the same bits.
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
            memo[key] = _Moments(self.values[start:stop])
        return memo[key]


def _sum_of_squares(deviations: np.ndarray) -> float:
    """``math.fsum`` of the squares, each with the bits of Python's ``v ** 2``.

    ``np.float_power`` runs numpy's generic double loop over the C library's
    ``pow``, the function CPython's ``**`` calls; numpy's ``x * x`` rounds
    differently on some doubles. A square that overflows raises
    OverflowError, as ``**`` does, instead of warning and giving inf.
    """
    with np.errstate(over="raise"):
        try:
            squares = np.float_power(deviations, 2.0)
        except FloatingPointError:
            raise OverflowError("a squared deviation is out of range") from None
    return math.fsum(memoryview(squares))


class _Moments:
    """The fsum mean and sum of squared deviations of one column, each taken on first use.

    A sum that raises is not kept, so the next reader raises it again.
    """

    __slots__ = ("column", "_mean", "_squares")

    def __init__(self, column: np.ndarray):
        self.column = column
        self._mean = self._squares = None

    def mean(self) -> float:
        """The fsum mean, clamped into the column's range: the rounded mean
        of equal values can fall one ulp outside them."""
        if self._mean is None:
            column = self.column
            mean = math.fsum(memoryview(column)) / len(column)
            self._mean = float(min(max(mean, column.min()), column.max()))
        return self._mean

    def deviations(self) -> np.ndarray:
        """The column less its mean, taken anew on each call."""
        return self.column - self.mean()

    def sum_of_squares(self, deviations: np.ndarray | None = None) -> float:
        """The sum of squared deviations; ``deviations``, if given, are ``deviations()``'s."""
        if self._squares is None:
            if deviations is None:
                deviations = self.deviations()
            self._squares = _sum_of_squares(deviations)
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
    values = memoryview(series.values)
    n = len(values)
    moments = series._moments(0, n)
    mean = moments.mean()
    variance = moments.sum_of_squares() / (n - 1) if n > 1 else 0.0
    return SummaryStats(
        n=n,
        mean=mean,
        variance=variance,
        std_dev=math.sqrt(variance),
        min=min(values),
        max=max(values),
    )


def reindex(series: TimeSeries) -> TimeSeries:
    """Renumber observations 1..n in order, keeping values."""
    if len(series) == 0:
        raise DataError("cannot reindex an empty series")
    return TimeSeries(indices=np.arange(1, len(series) + 1), values=series.values)
