import math

import numpy as np
import pytest

from riskseries.autoreg import ARModel, fit_ar, predictions
from riskseries.errors import NumericalError, UsageError
from riskseries.residuals import (
    ResidualReport,
    percentile_column,
    plot_data,
    residual_analysis,
)
from riskseries.series import TimeSeries
from riskseries.trend import fit_trend


@pytest.fixture(scope="module")
def raw_ar1_report(event_series):
    model = fit_ar(event_series, 1)
    return residual_analysis(model, event_series)


def test_published_rows(raw_ar1_report):
    report = raw_ar1_report
    assert report.y[0] == pytest.approx(396.0)
    assert report.y_predicted[0] == pytest.approx(351.4924, rel=1e-6)
    assert report.residual[0] == pytest.approx(44.50760128, rel=1e-7)
    assert report.standardized[0] == pytest.approx(0.17255926, rel=1e-6)
    assert report.percentile[0] == pytest.approx(1.666666667, rel=1e-9)
    assert not report.outlier[0]

    assert report.y[29] == pytest.approx(1355.0)
    assert report.y_predicted[29] == pytest.approx(477.34239, rel=1e-7)
    assert report.residual[29] == pytest.approx(877.6576147, rel=1e-8)
    assert report.standardized[29] == pytest.approx(3.402743454, rel=1e-8)
    assert report.percentile[29] == pytest.approx(98.333333333, rel=1e-9)
    assert report.outlier[29]


def test_exactly_one_outlier(raw_ar1_report):
    outliers = raw_ar1_report.outlier.nonzero()[0]
    assert len(outliers) == 1
    assert outliers[0] + 1 == 30  # observation ids count from 1


def test_outlier_flag_needs_a_standardized_residual_above_the_threshold(event_series,
                                                                       raw_ar1_report):
    model = fit_ar(event_series, 1)
    largest = float(np.abs(raw_ar1_report.standardized).max())
    at = residual_analysis(model, event_series, largest)
    assert not at.outlier.any()
    below = residual_analysis(model, event_series, math.nextafter(largest, 0.0))
    assert below.outlier.tolist() == (np.abs(below.standardized) == largest).tolist()
    assert below.outlier.sum() == 1


def test_scales(raw_ar1_report):
    # standardization divisor sqrt(RSS/(n-1)); fit scale sqrt(RSS/(n-k))
    assert raw_ar1_report.scale == pytest.approx(
        math.sqrt(1929256.0 / 29.0), rel=1e-6
    )
    assert raw_ar1_report.regression_std_error == pytest.approx(262.491897, rel=1e-7)
    ratios = {
        residual / standardized
        for residual, standardized in zip(raw_ar1_report.residual, raw_ar1_report.standardized)
        if standardized != 0.0
    }
    for ratio in ratios:
        assert ratio == pytest.approx(raw_ar1_report.scale, rel=1e-9)


def test_residual_identities(raw_ar1_report):
    report = raw_ar1_report
    n = len(report.residual)
    assert math.fsum(report.residual) == pytest.approx(0.0, abs=1e-6)
    assert math.fsum(report.standardized ** 2) == pytest.approx(n - 1, rel=1e-10)


def test_perfect_fit_degenerates_cleanly():
    series = TimeSeries.from_values([2.0 * t + 1.0 for t in range(1, 9)])
    model = fit_trend(series)
    report = residual_analysis(model, series)
    assert report.scale == 0.0
    assert all(residual == pytest.approx(0.0, abs=1e-9) for residual in report.residual)
    assert all(standardized == 0.0 for standardized in report.standardized)
    assert not any(report.outlier)


@pytest.mark.parametrize("k", [-200, -60, -46, -1, 1, 26, 300])
def test_degeneracy_test_is_relative_to_the_data(k):
    # 60 Gumbel values with mean 128; scaling by 2**k is exact, so the scale
    # must be exactly 2**k times and the standardized column bit-identical.
    values = np.random.default_rng(3).gumbel(100.0, 50.0, 60)
    base_series = TimeSeries.from_values(values)
    base = residual_analysis(fit_trend(base_series), base_series)
    assert base.scale > 0.0 and base.outlier.sum() == 1
    series = TimeSeries.from_values(values * 2.0 ** k)
    report = residual_analysis(fit_trend(series), series)
    assert report.scale == math.ldexp(base.scale, k)
    assert report.standardized.tobytes() == base.standardized.tobytes()
    assert report.outlier.tolist() == base.outlier.tolist()


def test_trend_line_residuals_path():
    series = TimeSeries.from_values([1.0, 3.0, 2.0, 5.0, 4.0, 7.0])
    line = fit_trend(series)
    report = residual_analysis(line, series)
    assert len(report.y) == 6
    for y, y_predicted, residual in zip(report.y, report.y_predicted, report.residual):
        assert residual == y - y_predicted


def test_percentile_column_goldens_and_properties():
    column = percentile_column(30)
    assert column[0] == pytest.approx(1.666666667, rel=1e-9)
    assert column[-1] == pytest.approx(98.333333333, rel=1e-9)
    assert percentile_column(1) == (50.0,)
    for n in (1, 2, 5, 30, 101):
        column = percentile_column(n)
        assert all(a < b for a, b in zip(column, column[1:]))
        for k in range(n):
            assert column[k] + column[n - 1 - k] == pytest.approx(100.0, abs=1e-9)
    with pytest.raises(UsageError):
        percentile_column(0)


def test_plot_data(raw_ar1_report):
    residual_points, probability_points = plot_data(raw_ar1_report)
    assert len(residual_points) == len(raw_ar1_report.y) == 30
    assert len(probability_points) == 30
    biggest = max(residual_points, key=lambda point: abs(point[1]))
    assert biggest[0] == pytest.approx(477.342, rel=1e-5)
    assert biggest[1] == pytest.approx(877.658, rel=1e-5)
    # probability plot pairs percentiles with the sorted observed values
    assert [y for _, y in probability_points] == sorted(raw_ar1_report.y)
    assert probability_points[0][1] == pytest.approx(130.0)


def test_plot_data_singleton():
    series = TimeSeries.from_values([1.0, 2.0, 4.0])
    line = fit_trend(series)
    report = residual_analysis(line, series)
    residual_points, probability_points = plot_data(report)
    assert len(residual_points) == len(probability_points) == 3


def test_mismatched_model_and_series(event_series):
    model = fit_ar(event_series, 1)
    shorter = TimeSeries.from_values(event_series.values[:20])
    with pytest.raises(UsageError):
        residual_analysis(model, shorter)
    with pytest.raises(UsageError):
        residual_analysis(model, event_series, outlier_threshold=0.0)
    with pytest.raises(UsageError, match=r"^unsupported model type object$"):
        residual_analysis(object(), event_series)


def test_plot_data_of_an_empty_report_is_refused():
    empty = np.empty(0)
    report = ResidualReport(empty, empty, empty, empty, empty, np.empty(0, dtype=bool),
                            0.0, 0.0, 3.0)
    with pytest.raises(UsageError, match=r"^cannot build plot data from an empty report$"):
        plot_data(report)


def test_custom_outlier_threshold(event_series):
    model = fit_ar(event_series, 1)
    strict = residual_analysis(model, event_series, outlier_threshold=1.0)
    flagged = strict.standardized[strict.outlier]
    assert all(abs(standardized) > 1.0 for standardized in flagged)
    assert len(flagged) > 1


def _per_row_predictions(model, values):
    """The per-row sum ``b0 + fsum(b_i * y_{t-i})`` over the lagged design."""
    values = values.tolist()
    return [
        model.b0 + math.fsum(model.b[i - 1] * values[t - i] for i in range(1, model.p + 1))
        for t in range(model.p, len(values))
    ]


def _random_design_series(rng, p):
    n = int(rng.integers(2 * p + 2, 40))
    kind = rng.integers(3)
    if kind == 0:
        values = rng.normal(0.0, 10.0 ** rng.integers(-3, 4), n)
    elif kind == 1:
        values = np.round(rng.gamma(0.7, 9.0, n), 1) * (rng.random(n) < 0.5)
    else:
        values = rng.uniform(-1.0, 1.0, n) * 10.0 ** rng.integers(-200, 200)
    return TimeSeries.from_values(values)


@pytest.mark.parametrize("p", [1, 2, 3])
def test_predictions_are_bit_equal_to_the_per_row_fsum(p):
    rng = np.random.default_rng([2016, p])
    checked = 0
    while checked < (2000 if p <= 2 else 300):
        series = _random_design_series(rng, p)
        try:
            model = fit_ar(series, p)
        except (UsageError, NumericalError):
            continue
        observed, predicted = predictions(model, series)
        assert observed.tolist() == series.values[p:].tolist()
        expected = _per_row_predictions(model, series.values)
        assert [x.hex() for x in predicted.tolist()] == [x.hex() for x in expected]
        checked += 1


@pytest.mark.parametrize("b, x", [(-2.0, 0.0), (2.0, -0.0), (0.0, -3.0), (-0.0, 3.0)])
def test_predictions_keep_fsum_sign_of_a_zero_sum(b, x):
    # Row 1's product b * x is a signed zero; fsum returns +0.0 for it, so
    # b0 = -0.0 plus it is +0.0.
    p = 1
    series = TimeSeries.from_values([1.0, x, 2.0, 3.0, 5.0])
    report = fit_ar(series, p).report
    model = ARModel(p=p, b0=-0.0, b=(b,), report=report)
    _, predicted = predictions(model, series)
    expected = _per_row_predictions(model, series.values)
    assert [v.hex() for v in predicted.tolist()] == [v.hex() for v in expected]
    assert math.copysign(1.0, predicted[1]) == 1.0


def test_report_columns_are_read_only(raw_ar1_report):
    for name in ("y", "y_predicted", "residual", "standardized", "percentile", "outlier"):
        column = getattr(raw_ar1_report, name)
        assert len(column) == 30
        assert not column.flags.writeable
        with pytest.raises(ValueError):
            column[0] = 0
    assert raw_ar1_report.outlier.dtype == bool
    assert raw_ar1_report.percentile.dtype == np.float64


def test_percentile_column_matches_the_scalar_rule():
    for n in (1, 2, 3, 30, 9_999, 100_000):
        expected = [100.0 * (2 * k - 1) / (2 * n) for k in range(1, n + 1)]
        assert list(percentile_column(n)) == expected


def test_exact_fit_of_an_all_negative_record_degenerates():
    # The largest magnitude, 1005, is not the largest value, -1000.125: the
    # degeneracy test must scale by the magnitude, or float noise of 1e-13
    # in the residuals would be standardized against.
    series = TimeSeries.from_values([-1000.0 - 0.125 * t for t in range(1, 41)])
    report = residual_analysis(fit_trend(series), series)
    assert (report.scale, report.regression_std_error) == (0.0, 0.0)
    assert report.standardized.tolist() == [0.0] * 40
    assert not report.outlier.any()
