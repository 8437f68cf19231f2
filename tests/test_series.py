import math
import random
import sys

import numpy as np
import pytest

from riskseries import series as series_module
from riskseries.errors import DataError
from riskseries.series import TimeSeries, reindex, summarize
from riskseries.trend import detrend, fit_trend


def test_constant_series_summary():
    stats = summarize(TimeSeries.from_values([5, 5, 5]))
    assert stats.variance == 0
    assert stats.std_dev == 0
    assert stats.mean == 5
    assert stats.min == 5 and stats.max == 5


def test_summary_of_raw_fixture_matches_descriptive_statistics(event_series):
    # The quoted 271.6 comes from descriptive statistics over the full
    # 31-value record; the 30-value AR-dependent slice lands at 273.0,
    # also inside the 2% band. The full record is the closer match.
    full = summarize(event_series)
    assert full.std_dev == pytest.approx(271.6, rel=0.02)
    assert full.std_dev == pytest.approx(271.69228546003035, rel=1e-12)
    dependent_slice = TimeSeries.from_values(event_series.values[1:])
    assert summarize(dependent_slice).std_dev == pytest.approx(271.6, rel=0.02)


def test_summary_of_detrended_fixture(detrended_series):
    assert summarize(detrended_series).std_dev == pytest.approx(50.9, rel=0.02)


def test_reindex_compacts_jumping_indices():
    series = TimeSeries.from_pairs([(1, 200.0), (8, 396.0), (9, 280.0)])
    compact = reindex(series)
    assert compact.indices.tolist() == [1, 2, 3]
    assert compact.values.tolist() == [200.0, 396.0, 280.0]


def test_reindex_identity_and_singleton():
    already = TimeSeries.from_values([1.0, 2.0, 3.0])
    assert reindex(already).indices.tolist() == [1, 2, 3]
    single = TimeSeries.from_pairs([(42, 7.0)])
    assert reindex(single).indices[0] == 1
    assert reindex(single).values[0] == 7.0


def test_reindex_and_the_columns_reject_what_no_series_has():
    with pytest.raises(DataError, match=r"^cannot reindex an empty series$"):
        reindex(TimeSeries([], []))
    with pytest.raises(DataError, match=(
            r"^indices must be a one-dimensional column, got shape \(1, 2\)$")):
        TimeSeries([[1, 2]], [[1.0, 2.0]])
    with pytest.raises(DataError, match=(
            r"^values must be a one-dimensional column, got shape \(1, 2\)$")):
        TimeSeries([1, 2], [[1.0, 2.0]])


def test_summarize_matches_brute_force_variance():
    rng = random.Random(7)
    for _ in range(25):
        n = rng.randint(2, 100)
        values = [rng.uniform(-1e3, 1e3) for _ in range(n)]
        stats = summarize(TimeSeries.from_values(values))
        mean = sum(values) / n
        brute = sum((v - mean) ** 2 for v in values) / (n - 1)
        assert stats.variance == pytest.approx(brute, rel=1e-12, abs=1e-12)
        assert stats.std_dev == math.sqrt(stats.variance)
        assert stats.min <= stats.mean <= stats.max


def _variance_generator(values: list[float]) -> float:
    """The sample variance as written with a per-value Python generator."""
    mean = math.fsum(values) / len(values)
    return math.fsum((v - mean) ** 2 for v in values) / (len(values) - 1)


@pytest.mark.parametrize("seed", range(20))
def test_variance_bits_match_the_generator_form(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 2000))
    scale = 10.0 ** rng.integers(-5, 9)
    values = (rng.normal(3.0, 1.0, n) * scale).tolist()
    assert summarize(TimeSeries.from_values(values)).variance.hex() == \
        _variance_generator(values).hex()


def test_variance_squares_round_as_python_pow(squares_that_differ):
    # [0, 2d] has mean d and deviations -d and d, so the variance is
    # exactly twice the square of d: the square's bits show through.
    for d in squares_that_differ:
        values = [0.0, 2.0 * d]
        assert summarize(TimeSeries.from_values(values)).variance.hex() == \
            _variance_generator(values).hex()


def test_float_power_squares_have_the_bits_of_python_pow():
    """The sums of squares rely on np.float_power calling the C library's pow.

    If a numpy release routes float_power through a pow of its own, the
    squares stop matching Python's ``v ** 2`` and this fails first.
    """
    rng = np.random.default_rng(20162)
    edges = []
    for edge in (math.sqrt(sys.float_info.max), math.sqrt(sys.float_info.min)):
        below = above = edge
        for _ in range(16):
            below, above = math.nextafter(below, 0.0), math.nextafter(above, math.inf)
            edges += [below, above, -below, -above]
        edges += [edge, -edge]
    values = np.concatenate([
        np.frombuffer(rng.bytes(8 * 100_000), dtype=np.float64),  # any bit pattern
        rng.normal(0.0, 1.0, 100_000) * 10.0 ** rng.uniform(-160, 160, 100_000),
        [0.0, -0.0, 5e-324, -5e-324, sys.float_info.max, math.inf, -math.inf, math.nan],
        edges,
    ])
    with np.errstate(over="ignore", invalid="ignore"):
        squares = np.float_power(values, 2.0).tolist()
    mismatches = []
    for v, square in zip(values.tolist(), squares):
        try:
            expected = v ** 2
        except OverflowError:
            expected = math.inf
        if square.hex() != expected.hex():
            mismatches.append((v.hex(), square.hex(), expected.hex()))
    assert mismatches == []


def test_variance_that_overflows_raises_overflow_error():
    # As ``** 2`` did: an OverflowError, not a numpy warning and an inf.
    with pytest.raises(OverflowError, match="squared deviation"):
        summarize(TimeSeries.from_values([1e200, 0.0, 1e200, 0.0]))
    with pytest.raises(OverflowError, match="intermediate overflow in fsum"):
        summarize(TimeSeries.from_values([1.7e308, 0.0, 1.7e308, 0.0]))


def test_mean_of_equal_huge_values_is_clamped_to_the_value():
    # fsum rounds the sum of five copies, so the plain mean is an ulp off
    # and each deviation would square past the largest double.
    value = 1.224238054497639e228
    assert math.fsum([value] * 5) / 5 != value
    for n in (1, 2, 5, 12, 92):
        for sign in (1.0, -1.0):
            stats = summarize(TimeSeries.from_values([sign * value] * n))
            assert (type(stats.mean), stats.mean) == (float, sign * value)
            assert (stats.variance, stats.std_dev) == (0.0, 0.0)


@pytest.mark.parametrize("seed", range(4))
def test_mean_in_range_keeps_the_bits_of_the_fsum_mean(seed):
    rng = np.random.default_rng(seed)
    values = rng.normal(0.0, 10.0 ** rng.integers(-100, 100), size=200)
    series = TimeSeries.from_values(values)
    for start, stop in ((0, 200), (1, 200), (0, 199), (5, 6)):
        mean = series._moments(start, stop).mean()
        expected = math.fsum(values[start:stop].tolist()) / (stop - start)
        assert (type(mean), mean.hex()) == (float, expected.hex())


def _exact_units(values: list[float]) -> int:
    """The sum as an integer count of 2**-1074, from each double's integer ratio."""
    total = 0
    for value in values:
        numerator, denominator = value.as_integer_ratio()
        total += numerator << (1074 - denominator.bit_length() + 1)
    return total


def _fsum_text(values: list[float]) -> str:
    try:
        return math.fsum(values).hex()
    except OverflowError as error:
        return str(error)


def _rounded_text(total: int, exponent: int) -> str:
    try:
        return series_module._rounded(total, exponent).hex()
    except OverflowError as error:
        return str(error)


def _adversarial_columns():
    rng = np.random.default_rng(30)
    specials = [0.0, -0.0, 5e-324, -5e-324, sys.float_info.min, -sys.float_info.min,
                sys.float_info.max, -sys.float_info.max, 1.0, -1.5]
    columns = [np.array([value]) for value in specials]
    for n in (1, 2, 3, 7, 64, 1000):
        bits = np.frombuffer(rng.bytes(8 * n), dtype=np.float64)  # any finite bit pattern
        columns.append(np.where(np.isfinite(bits), bits, -0.0))
        # Exponents over the whole range, subnormals and underflow to zero included.
        spread = np.ldexp(rng.uniform(0.5, 1.0, n), rng.integers(-1100, 1025, n))
        columns.append(spread * rng.choice([-1.0, 1.0], n))
        columns.append(rng.normal(0.0, 1.0, n) * 2.0 ** -1060)  # subnormals and their edge
        columns.append(rng.choice(specials, n))
        # Mixed signs that cancel to a remainder far below the largest value.
        wide = rng.normal(0.0, 1.0, n) * 10.0 ** rng.uniform(-300, 300, n)
        columns.append(np.concatenate([wide, -wide[::-1], [3e-320]]))
    return columns


def test_exact_total_is_the_exact_sum_and_rounds_as_fsum():
    for column in _adversarial_columns():
        values = column.tolist()
        total, exponent, top = series_module._exact_total(column)
        # total * 2**exponent == units * 2**-1074, compared as integers.
        assert total << (exponent + 1126) == _exact_units(values) << 52
        assert max(math.frexp(value)[1] for value in values) <= top  # |value| < 2**top
        expected = _fsum_text(values)
        if expected == "intermediate overflow in fsum":
            # fsum also raises when only a partial sum overflows; the
            # exact total rounds as the exact sum does.
            try:
                expected = (_exact_units(values) / (1 << 1074)).hex()
            except OverflowError:
                pass
        assert _rounded_text(total, exponent) == expected, values[:8]


@pytest.mark.parametrize("seed", range(3))
def test_every_slice_total_rounds_as_the_fsum_of_the_slice(seed):
    rng = np.random.default_rng([30, seed])
    n = 40
    values = [
        rng.normal(0.0, 1.0, n) * 10.0 ** rng.uniform(-300, 300, n),
        np.where(rng.random(n) < 0.4, np.round(rng.gamma(0.7, 9.0, n), 1), 0.0),
        np.frombuffer(rng.bytes(8 * n), dtype=np.float64),
    ][seed]
    values = np.where(np.isfinite(values), values, 0.0)
    series = TimeSeries.from_values(values)
    whole = series_module._exact_total(series.values)
    for start in range(n):
        for stop in range(start + 1, n + 1):
            piece = values[start:stop].tolist()
            exact = series_module._slice_total(series.values, whole, start, stop)
            assert _rounded_text(*exact[:2]) == _fsum_text(piece)
            if _fsum_text(piece).startswith("0x") and len(set(piece)) > 1:
                mean = series._moments(start, stop).mean()
                assert mean.hex() == (math.fsum(piece) / len(piece)).hex()


def test_mean_whose_fsum_overflows_only_in_a_partial_sum_is_finite():
    values = [1.7e308, 1.7e308, -1.7e308]
    with pytest.raises(OverflowError, match="intermediate overflow in fsum"):
        math.fsum(values)
    assert TimeSeries.from_values(values)._moments(0, 3).mean() == 1.7e308 / 3


def _near_constant_columns():
    rng = np.random.default_rng(31)
    for _ in range(300):
        n = int(rng.integers(1, 60))
        value = float(rng.normal(0.0, 1.0) * 10.0 ** rng.integers(-320, 308))
        steps = rng.integers(-3 * n, 3 * n + 1, n) if rng.random() < 0.7 else np.zeros(n, int)
        column = [value] * n
        for i, step in enumerate(steps.tolist()):
            for _ in range(abs(step)):
                column[i] = math.nextafter(column[i], math.copysign(math.inf, step))
        if rng.random() < 0.3:
            column[0] = float(np.mean(column))  # the first value at the mean
        yield np.array(column)


def test_mean_takes_the_bits_of_the_reductions_clamp():
    # The clamp skips its two reductions when the first value is far from
    # the mean; the bits must be those of clamping every mean.
    reached = set()
    for column in _near_constant_columns():
        moments = series_module._Moments(column)
        mean = math.fsum(column.tolist()) / len(column)
        expected = float(min(max(mean, column.min()), column.max()))
        assert moments.mean().hex() == expected.hex()
        reached.add(expected != mean)
    assert reached == {False, True}  # both a moved and an unmoved mean


@pytest.mark.parametrize("values", [
    [0.0, -0.0], [-0.0, 0.0], [1.0, -0.0, 0.0, 2.0], [1.0, 0.0, -0.0],
    [-1.0, 0.0, -0.0], [-1.0, -0.0, 0.0], [-0.0, -0.0, 0.0, 0.0],
])
def test_summary_min_and_max_are_the_first_of_equal_zeros(values):
    stats = summarize(TimeSeries.from_values(values))
    assert (type(stats.min), type(stats.max)) == (float, float)
    assert (stats.min.hex(), stats.max.hex()) == (min(values).hex(), max(values).hex())


def test_summarize_is_permutation_invariant_and_reindex_stable():
    rng = random.Random(11)
    values = [rng.uniform(0, 100) for _ in range(20)]
    shuffled = values[:]
    rng.shuffle(shuffled)
    a = summarize(TimeSeries.from_values(values))
    b = summarize(TimeSeries.from_values(shuffled))
    assert a.mean == pytest.approx(b.mean, rel=1e-12)
    assert a.variance == pytest.approx(b.variance, rel=1e-12)

    gapped = TimeSeries.from_pairs([(3 * i + 1, v) for i, v in enumerate(values)])
    assert summarize(reindex(gapped)) == summarize(gapped)
    assert sorted(reindex(gapped).values) == sorted(gapped.values)


def test_detrend_roundtrip_keeps_summary_shape(event_series):
    # detrended values should be centered near zero
    line = fit_trend(event_series)
    stats = summarize(detrend(event_series, line))
    assert abs(stats.mean) < 1e-9 * max(abs(v) for v in event_series.values)


def test_construction_errors():
    with pytest.raises(DataError):
        summarize(TimeSeries((), ()))
    with pytest.raises(DataError):
        TimeSeries.from_pairs([(1, 1.0), (1, 2.0)])  # duplicate index
    with pytest.raises(DataError):
        TimeSeries.from_pairs([(5, 1.0), (3, 2.0)])  # decreasing index
    with pytest.raises(DataError):
        TimeSeries.from_pairs([(0, 1.0)])
    with pytest.raises(DataError):
        TimeSeries.from_pairs([(1, float("nan"))])
    with pytest.raises(DataError):
        TimeSeries.from_pairs([(1, float("inf"))])
    with pytest.raises(DataError):
        TimeSeries.from_pairs([(1.5, 1.0)])  # would truncate to 1 if cast
    with pytest.raises(DataError):
        TimeSeries.from_pairs([(True, 1.0)])  # a bool is not an index


def test_validation_messages_show_python_scalars():
    cases = [
        ([(0, 1.0)], "observation index must be >= 1, got 0"),
        ([(1, float("nan"))], "observation value must be finite, got nan"),
        ([(1, 2.0), (2, float("-inf"))], "observation value must be finite, got -inf"),
        ([(1.5, 1.0)], "observation index must be an integer, got 1.5"),
        ([(True, 1.0)], "observation index must be an integer, got True"),
        ([(5, 1.0), (3, 2.0)], "index 3 follows 5"),
        ([(1, 1.0), (1, 2.0)], "index 1 follows 1"),
    ]
    for pairs, message in cases:
        with pytest.raises(DataError) as excinfo:
            TimeSeries.from_pairs(pairs)
        assert str(excinfo.value).endswith(message)
        assert "np." not in str(excinfo.value)
    with pytest.raises(DataError, match="equal length"):
        TimeSeries([1, 2, 3], [1.0, 2.0])


_BIG = 2 ** 63  # one past the largest int64


@pytest.mark.parametrize("indices, message", [
    ([1, _BIG], f"must be <= {_BIG - 1}, got {_BIG}"),  # numpy would pick float64
    ([1, 2 ** 64], f"must be <= {_BIG - 1}, got {2 ** 64}"),  # object
    ([_BIG, _BIG + 1], f"must be <= {_BIG - 1}, got {_BIG}"),  # uint64, which wrapped
    (np.array([_BIG], dtype=np.uint64), f"must be <= {_BIG - 1}, got {_BIG}"),
    ([1, 2 ** 64, 0], f"must be <= {_BIG - 1}, got {2 ** 64}"),  # the first bad one
    ([-(2 ** 70), 1], f"must be >= 1, got {-(2 ** 70)}"),
    ([2, -_BIG - 1], f"must be >= 1, got {-_BIG - 1}"),
])
def test_index_beyond_int64_is_named_as_given(indices, message):
    with pytest.raises(DataError) as excinfo:
        TimeSeries(indices, [1.0] * len(indices))
    assert str(excinfo.value) == f"observation index {message}"


def test_largest_int64_index_and_in_range_uint64_are_accepted():
    assert TimeSeries([1, _BIG - 1], [1.0, 2.0]).indices.tolist() == [1, _BIG - 1]
    assert TimeSeries(np.array([3, 5], dtype=np.uint64), [1.0, 2.0]).indices.tolist() == [3, 5]


def test_columns_are_read_only_copies():
    indices = np.array([1, 4, 9])
    values = np.array([3.0, 1.0, 2.0])
    series = TimeSeries(indices, values)
    assert series.indices.dtype == np.int64 and series.values.dtype == np.float64
    values[0] = 99.0  # the caller's array is not the series' column
    assert series.values.tolist() == [3.0, 1.0, 2.0]
    with pytest.raises(ValueError):
        series.values[0] = 5.0
    with pytest.raises(ValueError):
        series.indices[0] = 2
