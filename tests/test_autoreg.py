import math
import random
import sys

import numpy as np
import pytest

from riskseries.autoreg import (
    DETRENDED,
    DROP,
    KEEP,
    Z_ALPHA_TABLE,
    build_lagged_design,
    fit_ar,
    lag_correlation,
    minimum_length,
    select_order,
    z_alpha_threshold,
)
from riskseries import linreg, series as series_module
from riskseries.errors import NumericalError, UsageError
from riskseries.linreg import fit_ols
from riskseries.series import TimeSeries


# ----------------------------------------------------------- lagged design

def test_build_lagged_design_ramp():
    y, lag_columns = build_lagged_design([1.0, 2.0, 3.0, 4.0], 1)
    assert y.tolist() == [2.0, 3.0, 4.0]
    assert [column.tolist() for column in lag_columns] == [[1.0, 2.0, 3.0]]


def test_build_lagged_design_first_row_of_detrended_fixture(detrended_series):
    y, lag_columns = build_lagged_design(detrended_series.values, 1)
    assert y[0] == pytest.approx(81.07)
    assert lag_columns[0][0] == pytest.approx(-1.922)
    # the first value only ever appears as a regressor entry
    assert -1.922 not in y


def test_build_lagged_design_p3_row_count_and_layout(event_series):
    values = event_series.values
    y, lag_columns = build_lagged_design(values, 3)
    assert len(y) == 28
    assert y[0] == values[3]
    assert (lag_columns[0][0], lag_columns[1][0], lag_columns[2][0]) == (
        values[2], values[1], values[0],
    )
    # trailing shifted values are never used: columns stop at y_{n-1}
    assert lag_columns[0][-1] == values[-2]


def test_build_lagged_design_shift_identity():
    values = tuple(float(v) for v in range(10, 30))
    y, lag_columns = build_lagged_design(values, 4)
    n = len(values)
    for i in range(1, 5):
        column = lag_columns[i - 1]
        for r, cell in enumerate(column):
            assert cell == values[4 + r - i]
    assert len(y) == n - 4


def test_build_lagged_design_too_short_names_minimum():
    with pytest.raises(UsageError, match=str(minimum_length(3))):
        build_lagged_design([1.0] * 7, 3)
    with pytest.raises(UsageError):
        build_lagged_design([1.0, 2.0, 3.0], 0)


# ------------------------------------------------------------------ AR fits

RAW_AR1 = {"b0": 267.592408, "b1": 0.41949996, "t1": 1.83750007, "r2": 0.10760973}
RAW_AR2 = {"b0": 244.810699, "b1": 0.40025971, "b2": 0.07408742, "r2": 0.11091867,
           "se": 271.805443, "t2": 0.29227157}
RAW_AR3 = {"b0": 293.363292, "b1": 0.40810533, "b2": 0.10155194, "b3": -0.1493143,
           "r2": 0.12210307, "t3": -0.5705011, "p3": 0.573640953, "se": 279.507447}


def test_fit_ar_raw_goldens(event_series):
    ar1 = fit_ar(event_series, 1)
    assert ar1.b0 == pytest.approx(RAW_AR1["b0"], rel=1e-7)
    assert ar1.b[0] == pytest.approx(RAW_AR1["b1"], rel=1e-7)
    assert ar1.report.coefficients[1].t_stat == pytest.approx(RAW_AR1["t1"], rel=1e-7)
    assert ar1.report.r_squared == pytest.approx(RAW_AR1["r2"], rel=1e-7)
    assert ar1.report.n == 30

    ar2 = fit_ar(event_series, 2)
    assert ar2.b0 == pytest.approx(RAW_AR2["b0"], rel=1e-7)
    assert ar2.b[0] == pytest.approx(RAW_AR2["b1"], rel=1e-6)
    assert ar2.b[1] == pytest.approx(RAW_AR2["b2"], rel=1e-6)
    assert ar2.report.r_squared == pytest.approx(RAW_AR2["r2"], rel=1e-7)
    assert ar2.report.std_error_regression == pytest.approx(RAW_AR2["se"], rel=1e-7)
    assert ar2.report.n == 29

    ar3 = fit_ar(event_series, 3)
    assert ar3.b0 == pytest.approx(RAW_AR3["b0"], rel=1e-7)
    assert ar3.b[2] == pytest.approx(RAW_AR3["b3"], rel=1e-6)
    assert ar3.report.coefficients[3].t_stat == pytest.approx(RAW_AR3["t3"], rel=1e-6)
    assert ar3.report.coefficients[3].p_value == pytest.approx(RAW_AR3["p3"], rel=1e-7)
    assert ar3.report.r_squared == pytest.approx(RAW_AR3["r2"], rel=1e-7)
    assert ar3.report.n == 28


DETRENDED_AR1 = {"b0": 1.382648743, "b1": 0.161812235, "r2": 0.022101535,
                 "se": 52.17970381}
DETRENDED_AR2 = {"b0": -1.401310389, "b1": 0.163426393, "b2": -0.013931734,
                 "r2": 0.024012602, "se": 51.74028171}
DETRENDED_AR3 = {"b0": -2.141059352, "b1": 0.152825569, "b2": 0.048112684,
                 "b3": -0.316125243, "r2": 0.107093155, "se": 51.3325957}


def test_fit_ar_detrended_goldens(detrended_series):
    # The published detrended column is rounded to 2-3 decimals, so 5e-3
    # covers the propagation of that rounding through the fits.
    ar1 = fit_ar(detrended_series, 1, fitted_on=DETRENDED)
    assert ar1.b0 == pytest.approx(DETRENDED_AR1["b0"], rel=5e-3)
    assert ar1.b[0] == pytest.approx(DETRENDED_AR1["b1"], rel=5e-3)
    assert ar1.report.r_squared == pytest.approx(DETRENDED_AR1["r2"], rel=5e-3)
    assert ar1.report.std_error_regression == pytest.approx(DETRENDED_AR1["se"], rel=5e-3)
    assert ar1.fitted_on == DETRENDED

    ar2 = fit_ar(detrended_series, 2, fitted_on=DETRENDED)
    assert ar2.b0 == pytest.approx(DETRENDED_AR2["b0"], rel=5e-3)
    assert ar2.b[0] == pytest.approx(DETRENDED_AR2["b1"], rel=5e-3)
    assert ar2.b[1] == pytest.approx(DETRENDED_AR2["b2"], rel=5e-3)
    assert ar2.report.r_squared == pytest.approx(DETRENDED_AR2["r2"], rel=5e-3)

    ar3 = fit_ar(detrended_series, 3, fitted_on=DETRENDED)
    assert ar3.b0 == pytest.approx(DETRENDED_AR3["b0"], rel=5e-3)
    assert ar3.b[2] == pytest.approx(DETRENDED_AR3["b3"], rel=5e-3)
    assert ar3.report.r_squared == pytest.approx(DETRENDED_AR3["r2"], rel=5e-3)


def test_fit_ar_is_a_thin_wrapper(event_series):
    model = fit_ar(event_series, 2)
    y, lag_columns = build_lagged_design(event_series.values, 2)
    manual = fit_ols(y, list(lag_columns))
    assert model.report == manual  # exact equality, same code path


def test_fit_ar_on_constant_series_is_rank_deficient():
    with pytest.raises(NumericalError, match="rank-deficient"):
        fit_ar(TimeSeries.from_values([10.0] * 10), 1)


# ------------------------------------------------------------ order selection

def test_select_order_raw_alpha_005(event_series):
    trace = select_order([fit_ar(event_series, p) for p in range(1, 4)], alpha=0.05)
    assert trace.selected_order == 0
    assert [step.p for step in trace.steps] == [3, 2, 1]
    zs = [step.z for step in trace.steps]
    assert zs[0] == pytest.approx(-0.5705011, abs=1e-2)
    assert zs[1] == pytest.approx(0.29227157, abs=1e-2)
    assert zs[2] == pytest.approx(1.83750007, abs=1e-2)
    assert all(step.decision == DROP for step in trace.steps)
    assert all(step.z_alpha == 1.960 for step in trace.steps)


def test_select_order_raw_alpha_010_keeps_lag_one(event_series):
    trace = select_order([fit_ar(event_series, 1)], alpha=0.1)
    assert trace.selected_order == 1
    assert trace.steps[-1].decision == KEEP
    assert abs(trace.steps[-1].z) > 1.645


def test_select_order_synthetic_ar1():
    rng = np.random.default_rng(99)
    values = [0.0]
    for _ in range(199):
        values.append(0.9 * values[-1] + rng.normal(scale=0.1))
    series = TimeSeries.from_values(values)
    trace = select_order([fit_ar(series, p) for p in range(1, 4)], alpha=0.05)
    assert trace.selected_order >= 1


def test_select_order_trace_invariants(event_series):
    models = [fit_ar(event_series, p) for p in range(1, 4)]
    for alpha in (0.05, 0.1, 0.3):
        trace = select_order(models, alpha=alpha)
        threshold = z_alpha_threshold(alpha)
        for step in trace.steps:
            if step.decision == KEEP:
                assert abs(step.z) > threshold
            else:
                assert abs(step.z) <= threshold
        # only the last step may keep
        assert all(step.decision == DROP for step in trace.steps[:-1])
        ps = [step.p for step in trace.steps]
        assert ps == sorted(ps, reverse=True)


def test_select_order_affine_invariance(event_series):
    base = select_order([fit_ar(event_series, p) for p in range(1, 4)], alpha=0.05)
    shifted = TimeSeries.from_values([3.0 * v + 100.0 for v in event_series.values])
    transformed = select_order([fit_ar(shifted, p) for p in range(1, 4)], alpha=0.05)
    assert transformed.selected_order == base.selected_order
    for a, b in zip(base.steps, transformed.steps):
        assert a.decision == b.decision
        assert a.z == pytest.approx(b.z, abs=1e-9)


def test_select_order_only_reads_the_fits(event_series, monkeypatch):
    models = [fit_ar(event_series, p) for p in range(1, 4)]

    def no_fit(*args, **kwargs):
        raise AssertionError("select_order must not fit")

    monkeypatch.setattr(linreg, "fit_ols", no_fit)
    trace = select_order(models, alpha=0.3)
    assert [step.p for step in trace.steps] == [3, 2, 1]
    assert trace.selected_order == 1
    assert trace.steps[-1].coefficient == models[0].b[0]


def _replace(record, **changes):
    return type(record)(**{**{name: getattr(record, name) for name in record._fields}, **changes})


def test_select_order_drops_a_lag_whose_z_equals_the_threshold(event_series):
    model = fit_ar(event_series, 1)
    threshold = z_alpha_threshold(0.05)

    def with_top_t(t: float):
        report = model.report
        top = _replace(report.coefficients[-1], t_stat=t)
        return _replace(model, report=_replace(report, coefficients=(*report.coefficients[:-1], top)))

    for t in (threshold, -threshold):
        trace = select_order([with_top_t(t)], alpha=0.05)
        assert (trace.steps[0].z, trace.steps[0].decision, trace.selected_order) == (t, DROP, 0)
    for t in (math.nextafter(threshold, math.inf), math.nextafter(-threshold, -math.inf)):
        trace = select_order([with_top_t(t)], alpha=0.05)
        assert (trace.steps[0].z, trace.steps[0].decision, trace.selected_order) == (t, KEEP, 1)


def test_select_order_rejects_empty_or_misaligned_models(event_series):
    ar1, ar2, ar3 = (fit_ar(event_series, p) for p in range(1, 4))
    for models in ([], [ar2], [ar1, ar3], [ar2, ar1], [ar1, ar2, ar2]):
        with pytest.raises(UsageError):
            select_order(models)


def test_z_alpha_table_and_fallback():
    for alpha, expected in Z_ALPHA_TABLE.items():
        assert z_alpha_threshold(alpha) == expected
    # non-tabled level falls back to the two-sided normal quantile
    assert z_alpha_threshold(0.5) == pytest.approx(0.674489750, abs=1e-8)
    with pytest.raises(UsageError):
        z_alpha_threshold(0.0)
    # At or below 2**-53, 1 - alpha/2 rounds to 1 and has no finite quantile.
    for alpha in (2.0 ** -53, 1e-17, 5e-324):
        with pytest.raises(UsageError, match=r"^alpha must be greater than 2\*\*-53 "):
            z_alpha_threshold(alpha)
    assert 8.0 < z_alpha_threshold(math.nextafter(2.0 ** -53, 1.0)) < math.inf


# ------------------------------------------------------------- correlation

def test_lag_correlation_goldens(event_series, detrended_series):
    assert lag_correlation(event_series, 0) == pytest.approx(1.0, abs=1e-15)
    assert lag_correlation(event_series, 1) == pytest.approx(0.32803921, rel=1e-7)
    assert lag_correlation(detrended_series, 1) == pytest.approx(0.148665849, rel=5e-3)


def test_lag_correlation_matches_ar1_r_multiple(event_series, detrended_series):
    for series in (event_series, detrended_series):
        model = fit_ar(series, 1)
        assert abs(lag_correlation(series, 1)) == pytest.approx(
            model.report.r_multiple, abs=1e-12
        )


def test_lag_correlation_errors():
    with pytest.raises(UsageError):
        lag_correlation(TimeSeries.from_values([1.0, 2.0, 3.0, 4.0]), 2)
    with pytest.raises(NumericalError):
        lag_correlation(TimeSeries.from_values([5.0] * 8), 1)
    with pytest.raises(UsageError):
        lag_correlation(TimeSeries.from_values([1.0, 2.0, 3.0, 4.0]), -1)


def _seeded_series(seed: int) -> list[float]:
    rng = np.random.default_rng(seed)
    n = int(rng.integers(20, 400))
    kind = seed % 4
    if kind == 0:
        values = rng.normal(0.0, 1.0, n)
    elif kind == 1:  # rain-like: dry days and 0.1 mm ties
        values = np.where(rng.random(n) < 0.4, np.round(rng.gamma(0.7, 9.0, n), 1), 0.0)
    elif kind == 2:  # large offset, small spread: heavy cancellation
        values = 1e6 + rng.normal(0.0, 1e-3, n)
    else:
        values = rng.lognormal(0.0, 3.0, n) * rng.choice([-1.0, 1.0], n)
    return values.tolist()


def _lag_correlation_generators(values: list[float], lag: int) -> float:
    """The correlation as written with per-pair Python generators."""
    a, b = values[lag:], values[:len(values) - lag]
    mean_a = math.fsum(a) / len(a)
    mean_b = math.fsum(b) / len(b)
    cov = math.fsum((x - mean_a) * (y - mean_b) for x, y in zip(a, b))
    var_a = math.fsum((x - mean_a) ** 2 for x in a)
    var_b = math.fsum((y - mean_b) ** 2 for y in b)
    return cov / math.sqrt(var_a * var_b)


@pytest.mark.parametrize("seed", range(40))
def test_lag_correlation_bits_match_the_generator_form(seed):
    values = _seeded_series(seed)
    if max(values) == min(values):
        pytest.skip("constant series")
    series = TimeSeries.from_values(values)
    for lag in range(min(4, len(values) - 3)):
        assert lag_correlation(series, lag).hex() == \
            _lag_correlation_generators(values, lag).hex()


def test_lag_correlation_takes_each_slice_deviations_once(monkeypatch):
    taken = []
    deviations = series_module._Moments.deviations

    def counting(moments):
        taken.append(len(moments.column))
        return deviations(moments)

    monkeypatch.setattr(series_module._Moments, "deviations", counting)
    values = _seeded_series(1)
    n = len(values)
    fresh = lag_correlation(TimeSeries.from_values(values), 2)
    # One deviation array per slice, lag:n and 0:n-lag, shared by the
    # slice's sum of squares and the covariance.
    assert taken == [n - 2, n - 2]
    series = TimeSeries.from_values(values)
    fit_ar(series, 2)  # keeps the lag:n sum of squares
    taken.clear()
    kept = lag_correlation(series, 2)
    assert taken == [n - 2, n - 2]
    taken.clear()
    assert lag_correlation(series, 2) == kept  # both sums kept; the covariance needs both
    assert taken == [n - 2, n - 2]
    assert kept.hex() == fresh.hex() == _lag_correlation_generators(values, 2).hex()


def test_lag_correlation_squares_round_as_python_pow(squares_that_differ):
    # (-d, 0, d) at lag 0 has both means 0 and both variances exactly twice
    # the square of d, beside a covariance of twice the product d * d.
    for d in squares_that_differ:
        values = [-d, 0.0, d]
        assert lag_correlation(TimeSeries.from_values(values), 0).hex() == \
            _lag_correlation_generators(values, 0).hex()


@pytest.mark.parametrize("scale", [1e-150, 1e150], ids=["underflow", "overflow"])
def test_lag_correlation_survives_a_variance_product_out_of_range(scale):
    # Each variance is a normal double, but their product under- or
    # overflows: 1e-150 once divided by zero, 1e150 once printed 0.
    values = np.random.default_rng(5).normal(0.0, 1.0, 50) * scale
    expected = np.corrcoef(values[1:], values[:-1])[0, 1]
    assert lag_correlation(TimeSeries.from_values(values), 1) == pytest.approx(expected, rel=1e-12)


def test_lag_correlation_of_a_subnormal_variance_product_keeps_its_bits():
    # Scaling by 2**-262 is exact and leaves the correlation as it is, but the
    # lag variances' product falls to a subnormal 4.0e-313, which has lost
    # precision: the two square roots keep it within a few ulp.
    rng = random.Random(7)
    values = [rng.gauss(0.0, 1.0) for _ in range(50)]
    scaled = TimeSeries.from_values([value * 2.0 ** -262 for value in values])
    a, b = scaled._moments(1, 50), scaled._moments(0, 49)
    product = a.sum_of_squares(a.deviations()) * b.sum_of_squares(b.deviations())
    assert 0.0 < product < sys.float_info.min
    expected = lag_correlation(TimeSeries.from_values(values), 1)
    assert abs(lag_correlation(scaled, 1) - expected) <= 4 * math.ulp(expected)
