"""Extreme-event extraction: block maxima and peaks over threshold.

Peaks over threshold (POT) comes in two shapes. The compact form keeps
only the passing observations with their original indices, so the gap
structure stays visible. The zero-fill form keeps every time slot and
writes 0 where the value failed the threshold, which matters when the
empty slots themselves carry meaning (nothing paid, nothing measured).
"""
from __future__ import annotations

import math

import numpy as np

from ._record import Record
from .dist import _check_count
from .errors import DataError, UsageError
from .series import TimeSeries

STRICTLY_ABOVE = "strictly-above"
AT_OR_ABOVE = "at-or-above"
_COMPARISONS = (STRICTLY_ABOVE, AT_OR_ABOVE)


class ThresholdSpec(Record):
    threshold: float
    comparison: str = STRICTLY_ABOVE

    def __post_init__(self):
        if not math.isfinite(float(self.threshold)):
            raise UsageError(f"threshold must be finite, got {self.threshold!r}")
        object.__setattr__(self, "threshold", float(self.threshold))
        if self.comparison not in _COMPARISONS:
            raise UsageError(
                f"comparison must be one of {_COMPARISONS}, got {self.comparison!r}"
            )

    def passes(self, values: np.ndarray) -> np.ndarray:  # a mask over values
        if self.comparison == STRICTLY_ABOVE:
            return values > self.threshold
        return values >= self.threshold


class Provenance(Record):
    """How an event series was extracted from its parent series."""

    method: str  # "block-maxima" | "pot"
    block_size: int | None = None
    threshold: float | None = None
    comparison: str | None = None
    zero_filled: bool = False


class EventSeries(TimeSeries, eq=False):
    provenance: Provenance = Provenance(method="pot")


def block_maxima(series: TimeSeries, block_size: int) -> EventSeries:
    """One maximum per block of ``block_size`` consecutive positions.

    Blocking is positional (the series is renumbered 1..n first), the
    last block may be short, and ties keep the earliest position.
    """
    _check_count(block_size, "block_size")
    if len(series) == 0:
        raise DataError("cannot extract block maxima from an empty series")
    # One row per block: the short last block is padded with -inf, which
    # never wins, and argmax keeps the first of tied maxima.
    n = len(series)
    width = min(block_size, n)
    blocks = np.pad(series.values, (0, -n % width), constant_values=-np.inf).reshape(-1, width)
    positions = np.arange(0, n, width) + blocks.argmax(axis=1)
    provenance = Provenance(method="block-maxima", block_size=block_size)
    return EventSeries(
        indices=positions + 1, values=series.values[positions], provenance=provenance
    )


def pot_compact(series: TimeSeries, spec: ThresholdSpec) -> EventSeries:
    """Keep only observations passing the threshold, original indices intact.

    An empty result is legal (threshold above every value).
    """
    kept = spec.passes(series.values)
    provenance = Provenance(method="pot", threshold=spec.threshold, comparison=spec.comparison)
    return EventSeries(
        indices=series.indices[kept], values=series.values[kept], provenance=provenance
    )


def pot_zerofill(series: TimeSeries, spec: ThresholdSpec) -> EventSeries:
    """Same length as the input; failing slots are set to exactly 0.

    Requires contiguous indices: zero-filling needs every time slot to be
    present, so a gapped series must be reindexed (or filled) first.
    """
    indices = series.indices
    # Indices strictly increase, so they are contiguous iff they span n slots.
    if len(indices) and indices[-1] - indices[0] != len(indices) - 1:
        k = int(np.argmax(np.diff(indices) != 1)) + 1
        raise UsageError(
            "zero-fill needs contiguous indices; "
            f"found index {indices[k].item()} where {indices[0].item() + k} was expected"
        )
    return EventSeries(
        indices=indices,
        values=np.where(spec.passes(series.values), series.values, 0.0),
        provenance=Provenance(
            method="pot",
            threshold=spec.threshold,
            comparison=spec.comparison,
            zero_filled=True,
        ),
    )
