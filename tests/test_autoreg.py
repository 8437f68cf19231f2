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
from riskseries import linreg
from riskseries.errors import NumericalError, UsageError
from riskseries.linreg import fit_ols
from riskseries.series import TimeSeries


# ----------------------------------------------------------- lagged design

def test_build_lagged_design_ramp():
    design = build_lagged_design([1.0, 2.0, 3.0, 4.0], 1)
    assert design.y.tolist() == [2.0, 3.0, 4.0]
    assert [column.tolist() for column in design.lag_columns] == [[1.0, 2.0, 3.0]]


def test_build_lagged_design_first_row_of_detrended_fixture(detrended_series):
    design = build_lagged_design(detrended_series.values, 1)
    assert design.y[0] == pytest.approx(81.07)
    assert design.lag_columns[0][0] == pytest.approx(-1.922)
    # the first value only ever appears as a regressor entry
    assert -1.922 not in design.y


def test_build_lagged_design_p3_row_count_and_layout(event_series):
    values = event_series.values
    design = build_lagged_design(values, 3)
    assert len(design.y) == 28
    assert design.y[0] == values[3]
    assert (design.lag_columns[0][0], design.lag_columns[1][0], design.lag_columns[2][0]) == (
        values[2], values[1], values[0],
    )
    # trailing shifted values are never used: columns stop at y_{n-1}
    assert design.lag_columns[0][-1] == values[-2]


def test_build_lagged_design_shift_identity():
    values = tuple(float(v) for v in range(10, 30))
    design = build_lagged_design(values, 4)
    n = len(values)
    for i in range(1, 5):
        column = design.lag_columns[i - 1]
        for r, cell in enumerate(column):
            assert cell == values[4 + r - i]
    assert len(design.y) == n - 4


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
    design = build_lagged_design(event_series.values, 2)
    manual = fit_ols(design.y, list(design.lag_columns))
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
