"""Core time-series data model, descriptive statistics and reindexing.

A series is two aligned columns: integer event times (``indices``) and
finite magnitudes such as precipitation in mm (``values``). Indices may
jump (an event record keeps the time slot it occurred in). Both columns
are read-only numpy arrays owned by the series and validated once, so a
series is immutable and safe to share between threads.
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
    mean = math.fsum(values) / n
    if n > 1:
        variance = _sum_of_squares(series.values - mean) / (n - 1)
    else:
        variance = 0.0
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
