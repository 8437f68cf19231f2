import math
import random

import pytest

from riskseries.errors import DataError, UsageError
from riskseries.peaks import (
    AT_OR_ABOVE,
    STRICTLY_ABOVE,
    ThresholdSpec,
    block_maxima,
    pot_compact,
    pot_zerofill,
)
from riskseries.series import TimeSeries

THRESHOLD_100 = ThresholdSpec(100.0)


def test_block_maxima_of_worked_example(simple_series):
    events = block_maxima(simple_series, 3)
    assert list(zip(events.indices.tolist(), events.values.tolist())) == [
        (1, 200.0), (4, 120.0), (9, 190.0), (10, 110.0),
    ]
    assert events.provenance.method == "block-maxima"
    assert events.provenance.block_size == 3


def test_block_maxima_block_size_one_is_identity(simple_series):
    events = block_maxima(simple_series, 1)
    assert events.values.tolist() == simple_series.values.tolist()
    assert events.indices.tolist() == simple_series.indices.tolist()


def test_block_maxima_ties_keep_earliest_position():
    events = block_maxima(TimeSeries.from_values([7, 7, 7]), 3)
    assert list(zip(events.indices.tolist(), events.values.tolist())) == [(1, 7.0)]


def test_block_maxima_short_last_block_and_length():
    series = TimeSeries.from_values(range(1, 11))
    for size in (1, 2, 3, 4, 7, 10, 11):
        events = block_maxima(series, size)
        assert len(events) == math.ceil(len(series) / size)


def test_block_maxima_rejects_zero_block():
    with pytest.raises(UsageError):
        block_maxima(TimeSeries.from_values([1.0]), 0)


def test_pot_compact_worked_example(simple_series):
    events = pot_compact(simple_series, THRESHOLD_100)
    assert list(zip(events.indices.tolist(), events.values.tolist())) == [
        (1, 200.0), (4, 120.0), (6, 110.0), (7, 180.0),
        (9, 190.0), (10, 110.0), (12, 110.0),
    ]


def test_pot_compact_noop_and_empty(simple_series):
    assert pot_compact(simple_series, ThresholdSpec(0.0)).values.tolist() == \
        simple_series.values.tolist()
    above_everything = pot_compact(simple_series, ThresholdSpec(1e9))
    assert len(above_everything) == 0  # legal, reported, not an error


def test_pot_zerofill_worked_example(simple_series):
    events = pot_zerofill(simple_series, THRESHOLD_100)
    assert events.indices.tolist() == list(range(1, 13))
    assert events.values.tolist() == [200, 0, 0, 120, 0, 110, 180, 0, 190, 110, 0, 110]


def test_pot_zerofill_noop_and_all_zero(simple_series):
    assert pot_zerofill(simple_series, ThresholdSpec(0.0)).values.tolist() == \
        simple_series.values.tolist()
    zeroed = pot_zerofill(simple_series, ThresholdSpec(1e9))
    assert zeroed.values.tolist() == [0.0] * 12


def test_pot_zerofill_requires_contiguous_indices():
    gapped = TimeSeries.from_pairs([(1, 5.0), (3, 6.0)])
    with pytest.raises(UsageError):
        pot_zerofill(gapped, THRESHOLD_100)


def test_comparison_modes():
    series = TimeSeries.from_values([99.0, 100.0, 101.0])
    strict = pot_compact(series, ThresholdSpec(100.0, STRICTLY_ABOVE))
    inclusive = pot_compact(series, ThresholdSpec(100.0, AT_OR_ABOVE))
    assert strict.values.tolist() == [101.0]
    assert inclusive.values.tolist() == [100.0, 101.0]
    with pytest.raises(UsageError):
        ThresholdSpec(100.0, "above-ish")
    with pytest.raises(UsageError):
        ThresholdSpec(float("nan"))


def test_pot_idempotence_and_counts(simple_series):
    for spec in (THRESHOLD_100, ThresholdSpec(110.0, AT_OR_ABOVE)):
        compact = pot_compact(simple_series, spec)
        again = pot_compact(compact, spec)
        assert list(zip(again.indices.tolist(), again.values.tolist())) == \
            list(zip(compact.indices.tolist(), compact.values.tolist()))
        zerofill = pot_zerofill(simple_series, spec)
        again = pot_zerofill(zerofill, spec)
        assert list(zip(again.indices.tolist(), again.values.tolist())) == \
            list(zip(zerofill.indices.tolist(), zerofill.values.tolist()))
        assert set(compact.values) <= set(simple_series.values)
        assert len(compact) == sum(1 for v in zerofill.values if v != 0)


def test_empty_series_rejected():
    with pytest.raises(DataError):
        block_maxima(TimeSeries((), ()), 2)


def _loop_block_maxima(values, size):
    """Reference: scan each block, keep the first strictly larger value."""
    picked = []
    for start in range(0, len(values), size):
        best = start
        for position in range(start + 1, min(start + size, len(values))):
            if values[position] > values[best]:
                best = position
        picked.append((best + 1, values[best]))
    return picked


def test_array_extractors_match_loop_references():
    rng = random.Random(3)
    for _ in range(200):
        n = rng.randint(1, 40)
        values = [float(rng.randint(-3, 3)) for _ in range(n)]  # many ties
        series = TimeSeries.from_values(values)
        for size in (1, 2, 3, rng.randint(1, n + 3), n, n + 5):
            events = block_maxima(series, size)
            assert list(zip(events.indices.tolist(), events.values.tolist())) == \
                _loop_block_maxima(values, size)
        spec = ThresholdSpec(float(rng.randint(-3, 3)), rng.choice((STRICTLY_ABOVE, AT_OR_ABOVE)))
        passes = [v > spec.threshold if spec.comparison == STRICTLY_ABOVE else v >= spec.threshold
                  for v in values]
        compact = pot_compact(series, spec)
        assert list(zip(compact.indices.tolist(), compact.values.tolist())) == [
            (i, v) for i, v, ok in zip(range(1, n + 1), values, passes) if ok
        ]
        assert pot_zerofill(series, spec).values.tolist() == [
            v if ok else 0.0 for v, ok in zip(values, passes)
        ]
