import math
from collections import Counter

import numpy as np
import pytest

from riskseries import dist, linreg
from riskseries.errors import UsageError
from riskseries.series import TimeSeries, summarize
from riskseries.trend import (
    DECREASING,
    INCREASING,
    NO_TREND,
    _mk_s_and_variance,
    detrend,
    fit_trend,
    mann_kendall,
)

from mk_oracle import (
    exact_one_sided_p,
    exact_two_sided_p,
    normal_one_sided_p,
    s_statistic,
    s_statistic_blocked,
)


# ------------------------------------------------------------------ trend

def test_fit_trend_matches_published_line(event_series):
    line = fit_trend(event_series)
    assert line.slope == pytest.approx(14.78, rel=0.02)
    assert line.intercept == pytest.approx(189.14, rel=0.02)
    # frozen full-precision values as a regression guard
    assert line.slope == pytest.approx(14.780080645161292, rel=1e-10)
    assert line.intercept == pytest.approx(189.1445161290322, rel=1e-10)
    assert line.n == 31


def test_fit_trend_is_the_solve_of_fit_ols_without_its_report(event_series, monkeypatch):
    calls = []
    for module, name in ((linreg, "student_t_critical"), (dist, "regularized_incomplete_beta")):
        function = getattr(module, name)

        def counting(*args, function=function, name=name):
            calls.append(name)
            return function(*args)

        monkeypatch.setattr(module, name, counting)
    line = fit_trend(event_series)
    assert calls == []
    report = linreg.fit_ols(event_series.values, [np.arange(1.0, len(event_series) + 1)])
    assert {"student_t_critical", "regularized_incomplete_beta"} <= set(calls)
    assert line.intercept.hex() == report.coefficients[0].estimate.hex()
    assert line.slope.hex() == report.coefficients[1].estimate.hex()
    assert type(line.intercept) is float and type(line.slope) is float


def test_fit_trend_of_a_huge_constant_series_takes_no_regression_sum():
    # The line's slope is rounding noise of about 1e210 here, and the squared
    # deviations of its fitted values from the mean overflow. The line takes
    # no regression sum, so it is returned; the data's own deviations are 0.
    value = 1.224238054497639e228
    line = fit_trend(TimeSeries.from_values([value] * 92))
    assert line.intercept == pytest.approx(value, rel=1e-14)
    assert abs(line.slope) <= 1e-17 * value


def test_fit_trend_constant_and_exact_line():
    constant = fit_trend(TimeSeries.from_values([4.0] * 6))
    assert constant.slope == pytest.approx(0.0, abs=1e-12)
    assert constant.intercept == pytest.approx(4.0, rel=1e-12)
    exact = fit_trend(TimeSeries.from_values([3 * t + 7 for t in range(1, 9)]))
    assert exact.slope == pytest.approx(3.0, rel=1e-12)
    assert exact.intercept == pytest.approx(7.0, rel=1e-12)
    with pytest.raises(UsageError):
        fit_trend(TimeSeries.from_values([1.0, 2.0]))


def test_detrend_of_own_predictions_is_zero():
    line = fit_trend(TimeSeries.from_values([2 * t + 5 for t in range(1, 7)]))
    predictions = TimeSeries.from_values(
        [line.intercept + line.slope * t for t in range(1, 7)]
    )
    detrended = detrend(predictions, line)
    assert all(abs(v) < 1e-9 for v in detrended.values)


def test_detrend_first_observation_of_fixture(event_series):
    # Self-fitted detrending gives -3.92 at the first observation. The
    # published detrended column prints -1.922 there, which no linear fit
    # of this data reproduces; see data/NOTES.md. We assert our own value.
    line = fit_trend(event_series)
    detrended = detrend(event_series, line)
    assert detrended.values[0] == pytest.approx(-3.924596774193617, rel=1e-10)
    assert detrended.indices.tolist() == event_series.indices.tolist()


def test_detrend_then_refit_has_zero_slope(event_series):
    rng = np.random.default_rng(3)
    for _ in range(10):
        n = int(rng.integers(5, 40))
        series = TimeSeries.from_values(rng.normal(scale=50.0, size=n).cumsum())
        flattened = detrend(series, fit_trend(series))
        assert fit_trend(flattened).slope == pytest.approx(0.0, abs=1e-9)
        scale = max(abs(v) for v in series.values)
        assert abs(summarize(flattened).mean) < 1e-9 * scale
    line = fit_trend(event_series)
    with pytest.raises(UsageError):
        detrend(TimeSeries.from_values([1.0, 2.0, 3.0]), line)  # wrong length


# ----------------------------------------------------------- mann-kendall

def test_mann_kendall_constant_series():
    result = mann_kendall(TimeSeries.from_values([5.0] * 6), 0.05)
    assert result.S == 0
    assert result.Z == 0.0
    assert result.decision == NO_TREND
    assert result.p_value == 1.0


def test_mann_kendall_strictly_increasing():
    result = mann_kendall(TimeSeries.from_values([1.0, 2.0, 3.0, 4.0, 5.0]), 0.05)
    assert result.S == 10  # n(n-1)/2
    assert result.var_S == pytest.approx(16.666666667, rel=1e-9)  # n(n-1)(2n+5)/18
    assert result.Z == pytest.approx(2.2045, abs=5e-4)
    assert result.decision == INCREASING
    assert result.p_value < 0.05


def test_mann_kendall_decreasing_and_sign_convention():
    result = mann_kendall(TimeSeries.from_values([9.0, 7.0, 5.0, 3.0, 1.0]), 0.05)
    assert result.S == -10
    assert result.Z < 0
    assert result.decision == DECREASING
    assert (result.Z > 0) == (result.S > 0) or result.S == 0


def test_mann_kendall_continuity_correction_at_unit_s():
    # |S| = 1 collapses to Z = 0 under the standard continuity correction.
    # With n = 4 distinct values S has the parity of C(4,2) = 6, so |S| = 1
    # needs a tie.
    series = [1.0, 3.0, 2.0, 4.0]  # S = 4
    up_two = [2.0, 1.0, 4.0, 3.0]  # S = 2
    up_one = [1.0, 2.0, 2.0, 1.5]  # S = 1, one tied pair
    down_one = [1.5, 2.0, 2.0, 1.0]  # S = -1, mirror of up_one
    assert s_statistic(series) == 4
    assert s_statistic(up_two) == 2
    assert s_statistic(up_one) == 1
    assert s_statistic(down_one) == -1
    result = mann_kendall(TimeSeries.from_values(up_two), 0.05)
    assert result.S == 2
    assert result.Z == pytest.approx((2 - 1) / math.sqrt(result.var_S))
    for values, s in ((up_one, 1), (down_one, -1)):
        result = mann_kendall(TimeSeries.from_values(values), 0.05)
        assert result.S == s
        assert result.Z == 0.0
        assert result.decision == NO_TREND
    assert mann_kendall(TimeSeries.from_values(series), 0.05).S == 4


def test_mann_kendall_rejects_only_when_p_is_below_alpha(event_series):
    p_value = mann_kendall(event_series).p_value
    assert 0.0 < p_value < 1.0
    at = mann_kendall(event_series, alpha=p_value)
    assert (at.p_value, at.decision) == (p_value, NO_TREND)
    above = mann_kendall(event_series, alpha=math.nextafter(p_value, 1.0))
    assert above.p_value == p_value
    assert above.decision == (INCREASING if above.S > 0 else DECREASING)


def test_mann_kendall_requirements():
    with pytest.raises(UsageError):
        mann_kendall(TimeSeries.from_values([1.0, 2.0, 3.0]), 0.05)
    with pytest.raises(UsageError):
        mann_kendall(TimeSeries.from_values([1.0, 2.0, 3.0, 4.0]), 1.5)


def test_mann_kendall_s_matches_brute_force_and_tie_correction():
    # Lengths around powers of two exercise every merge level, including a
    # last pair whose right half is short or missing.
    rng = np.random.default_rng(5)
    lengths = [int(n) for n in rng.integers(4, 15, size=12)]
    lengths += [2 ** k + d for k in range(2, 10) for d in (-1, 0, 1) if 2 ** k + d >= 4]
    lengths.append(700)
    for n in lengths:
        rain = np.round(rng.gamma(0.6, 8.0, size=n), 1)
        rain[rng.random(n) < 0.6] = 0.0
        for values in (
            rng.normal(size=n),                      # untied
            rng.integers(0, 6, size=n).astype(float),  # small-integer ties
            rain,                                    # dry days and 0.1 ties
            rng.choice([0.0, -0.0, 1.0], size=n),    # signed zeros tie
        ):
            result = mann_kendall(TimeSeries.from_values(values), 0.05)
            assert result.S == s_statistic(values)
            _, counts = np.unique(values, return_counts=True)
            expected_var = (
                n * (n - 1) * (2 * n + 5)
                - sum(int(t) * (int(t) - 1) * (2 * int(t) + 5) for t in counts)
            ) / 18.0
            assert result.var_S == pytest.approx(expected_var, rel=1e-12)


def _tied_and_untied(rng, n):
    """Untied values, small-integer ties and rain-like ties, each of length n."""
    rain = np.round(rng.gamma(0.6, 8.0, size=n), 1)
    rain[rng.random(n) < 0.6] = 0.0
    return rng.permutation(n).astype(float), rng.integers(0, 6, size=n).astype(float), rain


def _tie_variance(values) -> float:
    """var(S) with the tie correction, from a Counter of the values."""
    n = len(values)
    ties = Counter(values.tolist()).values()
    return (n * (n - 1) * (2 * n + 5) - sum(t * (t - 1) * (2 * t + 5) for t in ties)) / 18.0


def test_mk_s_and_variance_is_exact_at_every_length_to_70():
    rng = np.random.default_rng(1301)
    for n in range(1, 71):
        for values in _tied_and_untied(rng, n):
            s, var = _mk_s_and_variance(values)
            assert type(s) is int
            assert (s, var) == (s_statistic(values), _tie_variance(values))
            assert s_statistic_blocked(values, rows=7) == s


def test_mk_s_and_variance_is_exact_around_powers_of_two():
    # The ranks are padded to the next power of two: one below, at and
    # one above each power pads most, none and least.
    rng = np.random.default_rng(1302)
    for j in range(1, 15):
        for n in (2 ** j - 1, 2 ** j, 2 ** j + 1):
            for values in _tied_and_untied(rng, n):
                s = s_statistic(values) if n <= 130 else s_statistic_blocked(values)
                assert _mk_s_and_variance(values) == (s, _tie_variance(values))


def test_mann_kendall_closed_forms_at_n_100000():
    n = 100_000
    pairs = n * (n - 1) // 2
    ramp = np.arange(n, dtype=float)
    assert mann_kendall(TimeSeries.from_values(ramp), 0.05).S == pairs
    assert mann_kendall(TimeSeries.from_values(ramp[::-1]), 0.05).S == -pairs
    constant = mann_kendall(TimeSeries.from_values(np.full(n, 3.5)), 0.05)
    assert constant.S == 0
    assert constant.var_S == 0.0
    m = n // 2
    step = mann_kendall(TimeSeries.from_values([0.0] * m + [1.0] * m), 0.05)
    assert step.S == m * m


def test_mann_kendall_against_exact_permutation_distribution():
    # Two-sided agreement across n = 4..8. The continuity-corrected normal
    # approximation is known to deviate up to ~0.033 at |S| = 4 for the
    # shortest series; the one-sided tail stays within ~0.016 everywhere.
    rng = np.random.default_rng(12)
    worst_two_sided = 0.0
    worst_one_sided = 0.0
    for _ in range(60):
        n = int(rng.integers(4, 9))
        if rng.random() < 0.5:
            values = rng.normal(size=n)
        else:
            values = rng.integers(0, 5, size=n).astype(float)
        result = mann_kendall(TimeSeries.from_values(values), 0.05)
        worst_two_sided = max(
            worst_two_sided, abs(result.p_value - exact_two_sided_p(values))
        )
        one_sided = normal_one_sided_p(result.S, result.var_S)
        worst_one_sided = max(
            worst_one_sided, abs(one_sided - exact_one_sided_p(values))
        )
    assert worst_two_sided <= 0.035
    assert worst_one_sided <= 0.02


def test_mann_kendall_rank_and_affine_invariance():
    rng = np.random.default_rng(8)
    for _ in range(20):
        values = rng.integers(-5, 6, size=10).astype(float)
        base = mann_kendall(TimeSeries.from_values(values), 0.05)
        cubed = mann_kendall(TimeSeries.from_values(values ** 3), 0.05)
        assert cubed.S == base.S  # strictly monotone transform
        assert cubed.var_S == base.var_S
        scaled = mann_kendall(TimeSeries.from_values(2.0 * values + 5.0), 0.05)
        assert scaled.S == base.S
        assert scaled.decision == base.decision
        assert math.isclose(scaled.Z, base.Z, rel_tol=1e-12, abs_tol=1e-12)


def test_detrend_matches_the_scalar_expression_exactly():
    rng = np.random.default_rng(17)
    values = rng.normal(scale=40.0, size=57).cumsum()
    series = TimeSeries.from_pairs([(3 * i + 2, v) for i, v in enumerate(values.tolist())])
    line = fit_trend(series)
    expected = [v - (line.intercept + line.slope * t)
                for t, v in enumerate(values.tolist(), start=1)]
    assert detrend(series, line).values.tolist() == expected
