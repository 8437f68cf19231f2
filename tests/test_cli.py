import importlib
import json
import math
import os
import pkgutil
import random
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from riskseries.cli import (
    EXIT_BROKEN_PIPE,
    EXIT_DATA,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_USAGE,
    AnalysisConfig,
    main,
    parse_csv,
    pipeline_to_dict,
    run_pipeline,
)
from riskseries import autoreg, linreg
from riskseries.errors import DataError, UsageError
from riskseries.peaks import ThresholdSpec


# ----------------------------------------------------------------- parsing

def test_parse_csv_fixture(fixture_path):
    series = parse_csv(fixture_path)
    assert len(series) == 31
    assert (series.indices[-1], series.values[-1]) == (142, 1355.0)
    assert series.values[10] == 195.2


def test_parse_csv_errors(tmp_path):
    missing = tmp_path / "nope.csv"
    with pytest.raises(DataError):
        parse_csv(str(missing))

    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(DataError):
        parse_csv(str(empty))

    header_only = tmp_path / "header.csv"
    header_only.write_text("month,value\n")
    with pytest.raises(DataError):
        parse_csv(str(header_only))

    malformed = tmp_path / "bad.csv"
    malformed.write_text("month,value\nabc,10\n")
    with pytest.raises(DataError, match="line 2"):
        parse_csv(str(malformed))

    unsorted = tmp_path / "unsorted.csv"
    unsorted.write_text("month,value\n5,1\n3,2\n")
    with pytest.raises(DataError):
        parse_csv(str(unsorted))


def test_parse_csv_decimal_comma(tmp_path):
    semicolon = tmp_path / "comma.csv"
    semicolon.write_text("month;value\n1;195,2\n2;225\n")
    series = parse_csv(str(semicolon), decimal="comma")
    assert series.values.tolist() == [195.2, 225.0]

    comma_separated = tmp_path / "comma2.csv"
    comma_separated.write_text("month,value\n1,195,2\n2,225\n")
    series = parse_csv(str(comma_separated), decimal="comma")
    assert series.values.tolist() == [195.2, 225.0]


@pytest.mark.parametrize("months, bad", [
    ("1,9223372036854775808", "<= 9223372036854775807, got 9223372036854775808"),
    ("1,18446744073709551616", "<= 9223372036854775807, got 18446744073709551616"),
    ("9223372036854775808,9223372036854775809",
     "<= 9223372036854775807, got 9223372036854775808"),
    ("-9223372036854775809,1", ">= 1, got -9223372036854775809"),
], ids=["float64", "object", "uint64", "below-int64"])
def test_month_beyond_int64_is_a_data_error_naming_it(tmp_path, capsys, months, bad):
    path = tmp_path / "huge.csv"
    path.write_text("month,value\n" + "".join(f"{m},1.5\n" for m in months.split(",")))
    assert main(["analyze", str(path)]) == EXIT_DATA
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"data error: {path}: observation index must be {bad}\n"


def test_parse_csv_crlf(tmp_path):
    crlf = tmp_path / "crlf.csv"
    crlf.write_bytes(b"month,value\r\n1,10\r\n2,20\r\n")
    assert parse_csv(str(crlf)).values.tolist() == [10.0, 20.0]


# ------------------------------------------------------------- exit codes

def test_exit_codes(tmp_path, fixture_path, capsys):
    assert main(["summarize", fixture_path]) == EXIT_OK
    capsys.readouterr()

    assert main(["summarize", str(tmp_path / "missing.csv")]) == EXIT_DATA
    assert "data error" in capsys.readouterr().err

    assert main(["peaks", fixture_path]) == EXIT_USAGE  # neither threshold nor block
    assert "usage error" in capsys.readouterr().err

    assert main(["nonsense-command"]) == EXIT_USAGE
    capsys.readouterr()

    constant = tmp_path / "constant.csv"
    constant.write_text("month,value\n" + "".join(f"{m},10\n" for m in range(1, 11)))
    assert main(["ar", str(constant)]) == EXIT_NUMERICAL
    assert "numerical error" in capsys.readouterr().err


@pytest.mark.parametrize("value, message", [
    ("1e200", "a squared deviation is out of range"),
    ("1.7e308", "intermediate overflow in fsum"),
], ids=["square-1e200", "sum-1.7e308"])
@pytest.mark.parametrize("command", [["summarize"], ["trend", "--mann-kendall"], ["analyze"]],
                         ids=["summarize", "trend", "analyze"])
def test_finite_input_whose_squares_or_sums_overflow_is_a_numerical_error(
        tmp_path, capsys, command, value, message):
    path = tmp_path / "huge.csv"
    path.write_text("month,value\n" + "".join(
        f"{m},{value if m % 2 else 0}\n" for m in range(1, 13)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy overflow warning fails the test
        assert main([command[0], str(path), *command[1:], "--format", "json"]) == EXIT_NUMERICAL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"numerical error: {message}\n"


# Two values are too few for the trend line, whose fit comes after the
# raw summary: a summary that overflows is reported first.
@pytest.mark.parametrize("rows, code, message", [
    ("1,1e200\n2,0\n", EXIT_NUMERICAL, "numerical error: a squared deviation is out of range"),
    ("1,5\n2,6\n", EXIT_USAGE, "usage error: trend fit needs at least 3 observations, got 2"),
], ids=["summary-overflows", "too-short-for-trend"])
@pytest.mark.parametrize("fmt", ["json", "text"])
def test_analyze_runs_the_raw_summary_before_the_trend_fit(
        tmp_path, capsys, rows, code, message, fmt):
    path = tmp_path / "two.csv"
    path.write_text("month,value\n" + rows)
    assert main(["analyze", str(path), "--format", fmt]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == message + "\n"


# The R of this design holds NaN. At k >= 3 (residuals --lag 2 and 3),
# numpy's SVD of such a matrix raises instead of returning NaN. analyze
# cannot reach the design: its summary overflows first.
@pytest.mark.parametrize("command, order", [
    ("ar", ["--max-lag", "1"]),
    ("residuals", ["--lag", "2"]),
    ("residuals", ["--lag", "3"]),
], ids=["ar-1", "residuals-2", "residuals-3"])
def test_overflowing_design_is_a_numerical_error_not_rank_deficiency(
        tmp_path, capsys, command, order):
    path = tmp_path / "alternating.csv"
    path.write_text("month,value\n" + "".join(
        f"{m},{1.7e308 if m % 2 else 0}\n" for m in range(1, 21)))
    assert main([command, str(path), *order]) == EXIT_NUMERICAL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "numerical error: design matrix overflows: its largest singular value is not finite\n"
    )


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--help"])
    assert excinfo.value.code == 0
    capsys.readouterr()


# ------------------------------------------------------------ subcommands

def test_summarize_json(fixture_path, capsys):
    assert main(["summarize", fixture_path, "--format", "json"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["n"] == 31
    assert payload["std_dev"] == pytest.approx(271.69228546, rel=1e-9)


def test_peaks_subcommand(tmp_path, capsys):
    csv = tmp_path / "simple.csv"
    values = [200, 30, 40, 120, 80, 110, 180, 55, 190, 110, 20, 110]
    csv.write_text("month,value\n" + "".join(f"{m},{v}\n" for m, v in enumerate(values, 1)))

    assert main(["peaks", str(csv), "--threshold", "100", "--format", "json"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["observations"] == [
        [1, 200.0], [4, 120.0], [6, 110.0], [7, 180.0], [9, 190.0], [10, 110.0], [12, 110.0],
    ]

    assert main(["peaks", str(csv), "--threshold", "100", "--zero-fill",
                 "--format", "json"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert [v for _, v in payload["observations"]] == [
        200, 0, 0, 120, 0, 110, 180, 0, 190, 110, 0, 110,
    ]

    assert main(["peaks", str(csv), "--block-size", "3", "--format", "json"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["observations"] == [[1, 200.0], [4, 120.0], [9, 190.0], [10, 110.0]]


def test_trend_subcommand(fixture_path, capsys):
    assert main(["trend", fixture_path, "--mann-kendall", "--format", "json"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["trend"]["slope"] == pytest.approx(14.78, rel=0.02)
    assert payload["mann_kendall"]["decision"] in ("increasing", "no-trend")


def test_ar_subcommand_golden(fixture_path, capsys):
    assert main(["ar", fixture_path, "--max-lag", "1", "--format", "json"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    coefficients = payload["ar"]["p1"]["coefficients"]
    assert coefficients[0]["estimate"] == pytest.approx(267.592408, rel=1e-7)
    assert coefficients[1]["estimate"] == pytest.approx(0.41949996, rel=1e-7)
    assert payload["order_selection"]["selected_order"] in (0, 1)


def test_residuals_subcommand_with_plot_data(fixture_path, capsys, tmp_path):
    plot_dir = tmp_path / "plots"
    assert main(["residuals", fixture_path, "--plot-data", str(plot_dir),
                 "--format", "json"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["outliers"] == [30]

    for name in ("residual_plot.csv", "probability_plot.csv"):
        lines = (plot_dir / name).read_text().strip().splitlines()
        assert lines[0] == "x,y"
        assert len(lines) == 1 + payload["n"]
        assert all(len(line.split(",")) == 2 for line in lines[1:])


def test_gev_pdf_subcommand(capsys):
    assert main(["gev-pdf", "--mu", "0", "--sigma", "1", "--xi", "0",
                 "--x", "0,1,-1", "--format", "json"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["points"][0][1] == pytest.approx(math.exp(-1.0), rel=1e-12)

    assert main(["gev-pdf", "--mu", "0", "--sigma", "-1", "--xi", "0", "--x", "0"]) == EXIT_USAGE
    capsys.readouterr()


def test_text_mode_smoke(tmp_path, fixture_path, capsys):
    csv = tmp_path / "simple.csv"
    values = [200, 30, 40, 120, 80, 110, 180, 55, 190, 110, 20, 110]
    csv.write_text("month,value\n" + "".join(f"{m},{v}\n" for m, v in enumerate(values, 1)))

    assert main(["peaks", str(csv), "--threshold", "100"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "7 events" in out and "strictly-above" in out

    assert main(["trend", fixture_path, "--mann-kendall"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "slope" in out and "mann-kendall" in out

    assert main(["gev-pdf", "--mu", "0", "--sigma", "1", "--xi", "0.3", "--x", "1,2"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "density" in out

    assert main(["residuals", fixture_path]) == EXIT_OK
    out = capsys.readouterr().out
    assert "residuals (raw AR(1))" in out and "outliers" in out

    assert main(["ar", fixture_path, "--max-lag", "2", "--detrend"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "ar (detrended) order 2" in out


def test_block_maxima_on_gapped_series_is_positional(tmp_path, capsys):
    gapped = tmp_path / "gapped.csv"
    gapped.write_text("month,value\n1,5\n8,9\n9,2\n24,7\n")
    assert main(["peaks", str(gapped), "--block-size", "2", "--format", "json"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    # positions after renumbering, not raw months
    assert payload["observations"] == [[2, 9.0], [4, 7.0]]


def test_loss_csv_and_header_validation(tmp_path, capsys):
    hazard = tmp_path / "hazard.csv"
    hazard.write_text("s,G\n1.0,2.0\n2.0,1.0\n")
    vulnerability = tmp_path / "vulnerability.csv"
    vulnerability.write_text("s,mean_loss,cov\n1.0,0.2,0.5\n2.0,0.5,0.5\n")
    losses = tmp_path / "losses.csv"
    losses.write_text("x\n0\n0.5\n2.0\n")
    assert main(["risk-curve", "--hazard", str(hazard), "--vulnerability",
                 str(vulnerability), "--loss-csv", str(losses),
                 "--format", "json"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["frequencies"]) == 3

    bad_header = tmp_path / "bad.csv"
    bad_header.write_text("sigma,G\n1.0,2.0\n")
    assert main(["risk-curve", "--hazard", str(bad_header), "--vulnerability",
                 str(vulnerability), "--losses", "1"]) == EXIT_DATA
    capsys.readouterr()


def test_risk_curve_subcommand(tmp_path, capsys):
    hazard = tmp_path / "hazard.csv"
    hazard.write_text("s,G\n1.0,2.0\n2.0,1.0\n3.0,0.5\n")
    vulnerability = tmp_path / "vulnerability.csv"
    vulnerability.write_text("s,mean_loss,cov\n1.0,0.2,0.5\n2.0,0.5,0.5\n3.0,0.9,0.5\n")

    assert main(["risk-curve", "--hazard", str(hazard), "--vulnerability",
                 str(vulnerability), "--losses", "0,0.5,100", "--format", "json"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["frequencies"][0] == pytest.approx(1.5, rel=1e-12)  # G_1 - G_n
    assert payload["frequencies"][-1] == pytest.approx(0.0, abs=1e-12)

    assert main(["risk-curve", "--hazard", str(hazard), "--vulnerability",
                 str(vulnerability)]) == EXIT_USAGE  # no loss grid
    capsys.readouterr()

    bad = tmp_path / "bad_hazard.csv"
    bad.write_text("s,G\n1.0,0.0\n2.0,0.0\n")
    assert main(["risk-curve", "--hazard", str(bad), "--vulnerability",
                 str(vulnerability), "--losses", "1"]) == EXIT_DATA
    capsys.readouterr()


def test_risk_curve_subnormal_loss_prints_the_zero_loss_frequency(tmp_path, capsys):
    argv = _risk_files(tmp_path, vulnerability_rows="1.0,10,0.5\n2.0,12,0.5\n")
    # theta is about 8.9, so 5e-324 / theta underflows to 0 (was a traceback)
    assert main(argv + ["--losses", "0,5e-324", "--format", "json"]) == EXIT_OK
    captured = capsys.readouterr()
    assert captured.err == ""
    frequencies = json.loads(captured.out)["frequencies"]
    assert frequencies[1] == frequencies[0] == 1.0


def test_risk_curve_of_an_underflowing_hazard_ratio_exits_0(tmp_path, capsys):
    # G_2 / G_1 underflows to 0: was a ValueError traceback from math.log.
    argv = _risk_files(tmp_path, hazard_rows="1.0,1e308\n2.0,1e-308\n3.0,5e-324\n",
                       vulnerability_rows="1.0,1,0.5\n2.0,2,0.5\n3.0,3,0.5\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv + ["--losses", "0,1,10,1e300", "--format", "json"]) == EXIT_OK
    captured = capsys.readouterr()
    assert captured.err == ""
    frequencies = json.loads(captured.out)["frequencies"]
    assert all(map(math.isfinite, frequencies))
    assert frequencies[0] == 1e308 - 5e-324


def test_risk_curve_overflowing_loss_ratio_prints_no_warning(tmp_path):
    argv = _risk_files(
        tmp_path,
        vulnerability_rows="1.0,0.2,0.5\n2.0,0.5,0.5\n3.0,0.9,0\n",  # every theta < 1
        hazard_rows="1.0,2.0\n2.0,1.0\n3.0,0.5\n",
    )
    done = _python("-m", "riskseries", *argv, "--losses", "0,5e-324,0.5,0.9,1.7e308",
                   capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stderr) == (EXIT_OK, "")
    assert done.stdout == (
        "loss             exceedance frequency\n"
        "0                1.5\n"
        "4.94065646e-324  1.5\n"
        "0.5              0.522915385\n"
        "0.9              0.0502144269\n"
        "1.7e+308         0\n"
    )


# --------------------------------------------------------------- pipeline

def test_analyze_json_golden_and_determinism(fixture_path, capsys):
    argv = ["analyze", fixture_path, "--format", "json"]
    assert main(argv) == EXIT_OK
    first = capsys.readouterr().out
    assert main(argv) == EXIT_OK
    second = capsys.readouterr().out
    assert first == second  # byte-identical

    payload = json.loads(first)
    assert payload["schema_version"] == 1
    ar1 = payload["ar"]["raw"]["p1"]
    assert ar1["coefficients"][0]["estimate"] == pytest.approx(267.592408, rel=1e-7)
    assert ar1["coefficients"][1]["estimate"] == pytest.approx(0.41949996, rel=1e-7)
    assert ar1["r_squared"] == pytest.approx(0.10760973, rel=1e-7)
    assert payload["residuals"]["outliers"] == [30]
    assert payload["order_selection"]["raw"]["selected_order"] == 0
    assert payload["lag_correlation"]["raw"] == pytest.approx(0.32803921, rel=1e-7)

    # round trip: parse -> dump -> parse is numerically identical
    assert json.loads(json.dumps(payload)) == payload


def test_analyze_text_renders_published_precision(fixture_path, capsys):
    assert main(["analyze", fixture_path, "--format", "json"]) == EXIT_OK
    slope = json.loads(capsys.readouterr().out)["ar"]["raw"]["p1"]["coefficients"][1]["estimate"]
    assert main(["analyze", fixture_path]) == EXIT_OK
    text = capsys.readouterr().out
    assert "267.592408" in text
    # the published slope 0.41949996 is an 8-digit display rounding of
    # 0.41949995519879; at >= 9 significant digits we render the latter
    assert "0.419499955" in text
    assert f"{slope:.8g}" == "0.41949996"
    assert "selected order: 0" in text


def test_text_values_come_from_the_json_dict(fixture_path, capsys):
    # every float printed in text mode must round from the JSON payload
    assert main(["analyze", fixture_path, "--format", "json"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert main(["analyze", fixture_path]) == EXIT_OK
    text = capsys.readouterr().out
    coefficients = payload["ar"]["raw"]["p3"]["coefficients"]
    for stat in coefficients:
        assert f"{stat['estimate']:.9g}" in text
        assert f"{stat['t_stat']:.9g}" in text


def test_analyze_constant_series_reports_skips(tmp_path, capsys):
    constant = tmp_path / "constant.csv"
    constant.write_text("month,value\n" + "".join(f"{m},10\n" for m in range(1, 11)))
    assert main(["analyze", str(constant), "--format", "json"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["trend"]["slope"] == pytest.approx(0.0, abs=1e-12)
    assert payload["mann_kendall"]["decision"] == "no-trend"
    assert "skipped" in payload["ar"]["raw"]["p1"]
    assert "rank-deficient" in payload["ar"]["raw"]["p1"]["skipped"]
    assert "skipped" in payload["residuals"]


def test_analyze_with_threshold_and_no_detrend(tmp_path, capsys):
    csv = tmp_path / "mixed.csv"
    values = [200, 30, 40, 120, 80, 110, 180, 55, 190, 110, 20, 110, 250, 90, 130]
    csv.write_text("month,value\n" + "".join(f"{m},{v}\n" for m, v in enumerate(values, 1)))
    assert main(["analyze", str(csv), "--threshold", "100", "--max-lag", "1",
                 "--no-detrend", "--format", "json"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["pot"]["n"] == 9
    assert "skipped" in payload["summary"]["detrended"]
    assert "skipped" in payload["ar"]["detrended"]


def test_analyze_plot_data(fixture_path, tmp_path, capsys):
    plot_dir = tmp_path / "plots"
    assert main(["analyze", fixture_path, "--plot-data", str(plot_dir)]) == EXIT_OK
    capsys.readouterr()
    residual_lines = (plot_dir / "residual_plot.csv").read_text().strip().splitlines()
    assert residual_lines[0] == "x,y"
    assert len(residual_lines) == 31  # header + 30 points


@pytest.mark.parametrize("command", ["analyze", "residuals"])
def test_plot_data_that_cannot_be_written_is_a_usage_error(fixture_path, tmp_path, capsys,
                                                          command):
    existing_file = tmp_path / "taken"
    existing_file.write_text("")
    for target, reason in ((existing_file, "File exists"),
                           (existing_file / "plots", "Not a directory")):
        assert main([command, fixture_path, "--plot-data", str(target),
                     "--format", "json"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"usage error: cannot write plot data to {target}: {reason}\n"
    assert existing_file.read_text() == ""


def test_run_pipeline_direct(event_series):
    config = AnalysisConfig(input="fixture", max_lag=3, alpha=0.05)
    report = run_pipeline(event_series, config)
    payload = pipeline_to_dict(report)
    assert payload["summary"]["raw"]["n"] == 31
    assert payload["ar"]["raw"]["p2"]["n"] == 29
    with pytest.raises(UsageError):
        AnalysisConfig(input="x", alpha=2.0)
    with pytest.raises(UsageError):
        AnalysisConfig(input="x", max_lag=0)


def test_run_pipeline_threshold_removing_everything(event_series):
    config = AnalysisConfig(input="fixture", threshold=ThresholdSpec(1e9), max_lag=1)
    with pytest.raises(DataError):
        run_pipeline(event_series, config)


# ------------------------------------------------- AR fits and order selection

def _count_calls(monkeypatch, module, name: str) -> list:
    calls = []
    function = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return function(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


def _count_fits(monkeypatch) -> list:
    return _count_calls(monkeypatch, linreg, "fit_ols")


def _count_solves(monkeypatch) -> list:
    # Every fit_ols takes one _solve; the trend line takes a _solve alone.
    return _count_calls(monkeypatch, linreg, "_solve")


def test_run_pipeline_fits_each_order_once(event_series, monkeypatch):
    calls = _count_fits(monkeypatch)
    solves = _count_solves(monkeypatch)
    report = run_pipeline(event_series, AnalysisConfig(input="fixture", max_lag=3))
    # AR(1)..AR(3) on the raw and on the detrended series, plus the trend line's solve
    assert len(calls) == 6
    assert len(solves) == 7
    assert report.order["raw"].selected_order == 0


def test_ar_and_analyze_fit_only_through_the_order_search(fixture_path, monkeypatch, capsys):
    searches, fits_outside = [], []
    fit_ar, fit_orders = autoreg.fit_ar, autoreg.fit_orders
    searching = False

    def search(series, max_lag, fitted_on):
        nonlocal searching
        searches.append((max_lag, fitted_on))
        pairs = fit_orders(series, max_lag, fitted_on)
        while True:
            searching = True
            pair = next(pairs, None)
            searching = False
            if pair is None:
                return
            yield pair

    def fit(series, p, *args, **kwargs):
        if not searching:
            fits_outside.append(p)
        return fit_ar(series, p, *args, **kwargs)

    monkeypatch.setattr(autoreg, "fit_orders", search)
    monkeypatch.setattr(autoreg, "fit_ar", fit)
    assert main(["ar", fixture_path, "--max-lag", "4", "--format", "json"]) == EXIT_OK
    assert main(["ar", fixture_path, "--detrend", "--format", "json"]) == EXIT_OK
    assert main(["analyze", fixture_path, "--max-lag", "2", "--format", "json"]) == EXIT_OK
    capsys.readouterr()
    assert searches == [(4, "raw"), (3, "detrended"), (2, "raw"), (2, "detrended")]
    assert fits_outside == []


def test_ar_fits_each_order_once(fixture_path, monkeypatch, capsys):
    calls = _count_fits(monkeypatch)
    assert main(["ar", fixture_path, "--max-lag", "4", "--format", "json"]) == EXIT_OK
    assert len(calls) == 4
    assert len(json.loads(capsys.readouterr().out)["order_selection"]["steps"]) == 4


def test_ar_fits_no_order_after_the_first_that_fails(tmp_path, monkeypatch, capsys):
    calls = _count_fits(monkeypatch)
    path = tmp_path / "constant.csv"
    path.write_text("month,value\n" + "".join(f"{m},5.0\n" for m in range(1, 401)))
    assert main(["ar", str(path), "--max-lag", "199"]) == EXIT_NUMERICAL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        "numerical error: design matrix is rank-deficient near column 'x1'")
    assert len(calls) == 1


@pytest.mark.parametrize("max_lag", ["0", "-1"])
def test_ar_max_lag_below_one_is_a_usage_error(fixture_path, capsys, max_lag):
    assert main(["ar", fixture_path, f"--max-lag={max_lag}"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"usage error: max lag must be >= 1, got {max_lag}\n"


def _random_series_csv(tmp_path, n: int) -> str:
    rng = random.Random(n)
    path = tmp_path / f"random{n}.csv"
    path.write_text("month,value\n" + "".join(
        f"{m},{rng.gauss(100.0, 20.0)!r}\n" for m in range(1, n + 1)))
    return str(path)


@pytest.mark.parametrize("detrend", [[], ["--detrend"]], ids=["raw", "detrend"])
@pytest.mark.parametrize("n, max_lag, order", [
    (400, 200, 200), (400, 2000, 200), (401, 250, 200), (31, 15, 15), (3, 1, 1),
])
def test_ar_max_lag_above_the_data_fails_before_any_fit(tmp_path, monkeypatch, capsys,
                                                        n, max_lag, order, detrend):
    # The message is the one the fit of the first order too high would raise.
    calls = _count_fits(monkeypatch)
    solves = _count_solves(monkeypatch)
    path = _random_series_csv(tmp_path, n)
    assert main(["ar", path, "--max-lag", str(max_lag), *detrend]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"usage error: lag order {order} needs at least {2 * order + 2} values, got {n}\n"
    )
    assert calls == []
    assert len(solves) == len(detrend)  # the trend line alone, when detrending


@pytest.mark.parametrize("flags", [[], ["--mann-kendall"]], ids=["trend", "mann-kendall"])
@pytest.mark.parametrize("alpha", ["0", "1", "-0.5", "1.5"])
def test_trend_alpha_outside_the_unit_interval_is_a_usage_error(fixture_path, capsys,
                                                                alpha, flags):
    assert main(["trend", fixture_path, f"--alpha={alpha}", *flags]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"usage error: alpha must be in (0, 1), got {float(alpha)!r}\n"


@pytest.mark.parametrize("detrend", [[], ["--detrend"]], ids=["raw", "detrend"])
@pytest.mark.parametrize("alpha", ["0", "1", "-0.5", "1.5"])
def test_ar_alpha_outside_the_unit_interval_fails_before_any_fit(tmp_path, monkeypatch,
                                                                 capsys, alpha, detrend):
    calls = _count_fits(monkeypatch)
    path = _random_series_csv(tmp_path, 400)
    for source in (path, str(tmp_path / "missing.csv")):  # nothing is read either
        argv = ["ar", source, "--max-lag", "199", f"--alpha={alpha}", *detrend]
        assert main(argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"usage error: alpha must be in (0, 1), got {float(alpha)!r}\n"
    assert calls == []


@pytest.mark.parametrize("command", ["ar", "analyze"])
def test_alpha_at_or_below_two_to_the_minus_53_fails_before_any_fit(tmp_path, monkeypatch,
                                                                    capsys, command):
    # 1 - alpha/2 rounds to 1 there, so no Z_alpha threshold exists.
    calls = _count_fits(monkeypatch)
    path = _random_series_csv(tmp_path, 400)
    for alpha in ("1e-17", "1.1102230246251565e-16", "5e-324"):
        for source in (path, str(tmp_path / "missing.csv")):  # nothing is read either
            assert main([command, source, "--max-lag", "199", f"--alpha={alpha}"]) == EXIT_USAGE
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == (
                "usage error: alpha must be greater than 2**-53 = 1.1102230246251565e-16, "
                f"got {float(alpha)!r}: 1 - alpha/2 would round to 1\n"
            )
    assert calls == []
    assert main([command, path, "--alpha=2e-16", "--format", "json"]) == EXIT_OK
    steps = json.loads(capsys.readouterr().out)["order_selection"]
    assert (steps if command == "ar" else steps["raw"])["steps"][0]["z_alpha"] > 8.0
    assert len(calls) == (3 if command == "ar" else 6)


def _analyze_json(tmp_path, capsys, values) -> dict:
    csv = tmp_path / "series.csv"
    csv.write_text("month,value\n" + "".join(f"{m},{v}\n" for m, v in enumerate(values, 1)))
    assert main(["analyze", str(csv), "--format", "json"]) == EXIT_OK
    return json.loads(capsys.readouterr().out)


def test_analyze_short_series_skips_order_selection_with_top_order_reason(tmp_path, capsys):
    payload = _analyze_json(tmp_path, capsys, [3, 1, 4, 1, 5])
    reason = "lag order 3 needs at least 8 values, got 5"
    assert payload["ar"]["raw"]["p3"] == {"skipped": reason}
    assert payload["order_selection"] == {"raw": {"skipped": reason},
                                          "detrended": {"skipped": reason}}


def _analyze_max_lag(fixture_path, capsys, max_lag: int, fmt: str) -> str:
    assert main(["analyze", fixture_path, "--max-lag", str(max_lag), "--format", fmt]) == EXIT_OK
    return capsys.readouterr().out


def test_analyze_output_size_follows_the_data_not_max_lag(fixture_path, capsys):
    # 31 rows fit AR orders up to (31 - 2) // 2 = 14; every higher order
    # shares the one skip entry of --max-lag itself.
    small = _analyze_max_lag(fixture_path, capsys, 20, "json")
    large = _analyze_max_lag(fixture_path, capsys, 20000, "json")
    reason = "lag order 20000 needs at least 40002 values, got 31"
    payload = json.loads(large)
    for branch in ("raw", "detrended"):
        assert list(payload["ar"][branch]) == [f"p{p}" for p in range(1, 15)] + ["p20000"]
        assert payload["ar"][branch]["p20000"] == {"skipped": reason}
        assert payload["order_selection"][branch] == {"skipped": reason}
    # Only the flag's own digits differ: in the config, two keys and four reasons.
    assert large.count("\n") == small.count("\n")
    assert len(large) - len(small) == 3 + 2 * 3 + 4 * 6
    small_text = _analyze_max_lag(fixture_path, capsys, 20, "text")
    large_text = _analyze_max_lag(fixture_path, capsys, 20000, "text")
    assert large_text.count("\n") == small_text.count("\n")
    assert len(large_text) - len(small_text) == 2 * 3 + 4 * 6


def test_analyze_max_lag_one_above_the_cap_keeps_every_entry(fixture_path, capsys):
    payload = json.loads(_analyze_max_lag(fixture_path, capsys, 15, "json"))
    assert list(payload["ar"]["raw"]) == [f"p{p}" for p in range(1, 16)]
    assert payload["ar"]["raw"]["p15"] == {"skipped": "lag order 15 needs at least 32 values, got 31"}
    assert "skipped" not in payload["ar"]["raw"]["p14"]


def test_analyze_constant_series_skips_order_selection_as_ar3_does(tmp_path, capsys):
    payload = _analyze_json(tmp_path, capsys, [10] * 12)
    selection = payload["order_selection"]
    assert selection["raw"] == {
        "skipped": "design matrix is rank-deficient near column 'intercept' "
                   "(smallest singular value 0.000e+00 vs largest 5.205e+01)"
    }
    assert selection["raw"] == payload["ar"]["raw"]["p3"]
    assert selection["detrended"] == payload["ar"]["detrended"]["p3"]


# ------------------------------------------------- non-finite input

def _risk_files(tmp_path, vulnerability_rows="1.0,0.2,0.5\n2.0,0.5,0.5\n",
                hazard_rows="1.0,2.0\n2.0,1.0\n"):
    hazard = tmp_path / "hazard.csv"
    hazard.write_text("s,G\n" + hazard_rows)
    vulnerability = tmp_path / "vulnerability.csv"
    vulnerability.write_text("s,mean_loss,cov\n" + vulnerability_rows)
    return ["risk-curve", "--hazard", str(hazard), "--vulnerability", str(vulnerability)]


@pytest.mark.parametrize("row", [
    "1.0,inf,0.5",   # was a ValueError traceback
    "1.0,0.2,inf",   # was a ZeroDivisionError traceback
    "1.0,0.2,nan",   # printed NaN frequencies
])
def test_non_finite_vulnerability_cell_is_a_data_error_naming_its_line(tmp_path, capsys, row):
    argv = _risk_files(tmp_path, vulnerability_rows=f"{row}\n2.0,0.5,0.5\n") + ["--losses", "0.5"]
    assert main(argv) == EXIT_DATA
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "line 2: vulnerability point must be finite" in captured.err


def test_non_finite_hazard_and_loss_csv_cells_name_their_line(tmp_path, capsys):
    argv = _risk_files(tmp_path, hazard_rows="1.0,2.0\n\n2.0,inf\n") + ["--losses", "0.5"]
    assert main(argv) == EXIT_DATA
    assert "line 4: hazard point must be finite" in capsys.readouterr().err

    losses = tmp_path / "losses.csv"
    losses.write_text("x\n0.5\nnan\n")
    argv = _risk_files(tmp_path) + ["--loss-csv", str(losses)]
    assert main(argv) == EXIT_DATA
    assert "line 3: loss grid must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("rows, line, message", [
    ("1.0,0,0.5\n2.0,0.5,0.5\n", 2, "mean loss must be positive, got 0.0"),
    ("1.0,0.2,-0.3\n2.0,0.5,0.5\n", 2, "coefficient of variation must be >= 0, got -0.3"),
    ("1.0,0.2,0.5\n2.5,0.5,0.5\n", 3, "vulnerability grid is misaligned: s=2.5 vs hazard s=2.0"),
    ("1.0,0.2,0.5\n2.0,0.5,0.5\n3.0,0.9,0.5\n", 4, "row beyond the 2-point hazard grid"),
    # Both printed NaN frequencies after two RuntimeWarnings, with exit 0.
    ("1.0,0.2,0.5\n2.0,1e-300,1e150\n", 3,
     "lognormal median underflows to 0 for mean loss 1e-300 and coefficient of variation 1e+150"),
    ("1.0,0.2,1.4e154\n2.0,0.5,0.5\n", 2,
     "lognormal log-sd overflows for coefficient of variation 1.4e+154"),
], ids=["zero-mean-loss", "negative-cov", "misaligned-s", "extra-row",
        "underflowing-median", "overflowing-log-sd"])
@pytest.mark.filterwarnings("error")
def test_bad_vulnerability_row_is_a_data_error_naming_its_line(
    tmp_path, capsys, rows, line, message
):
    argv = _risk_files(tmp_path, vulnerability_rows=rows) + ["--losses", "0.5"]
    assert main(argv) == EXIT_DATA
    captured = capsys.readouterr()
    assert captured.out == ""
    vulnerability = tmp_path / "vulnerability.csv"
    assert captured.err == f"data error: {vulnerability}: line {line}: {message}\n"


@pytest.mark.parametrize("rows, line, message", [
    ("1.0,0.0\n2.0,0.0\n", 2, "hazard frequencies must be positive, got 0.0 at s=1.0"),
    ("1.0,2.0\n2.0,-1.0\n", 3, "hazard frequencies must be positive, got -1.0 at s=2.0"),
    ("1.0,2.0\n2.0,1.0\n3.0,1.5\n", 4, "hazard frequencies must be non-increasing at s=3.0"),
    ("1.0,2.0\n\n2.0,1.0\n2.0,0.5\n", 5, "hazard intensities must be strictly increasing at s=2.0"),
    ("2.0,2.0\n1.0,1.0\n", 3, "hazard intensities must be strictly increasing at s=1.0"),
], ids=["zero-G", "negative-G", "rising-G", "repeated-s", "falling-s"])
def test_bad_hazard_row_is_a_data_error_naming_its_line(tmp_path, capsys, rows, line, message):
    argv = _risk_files(tmp_path, hazard_rows=rows) + ["--losses", "0.5"]
    assert main(argv) == EXIT_DATA
    captured = capsys.readouterr()
    assert captured.out == ""
    hazard = tmp_path / "hazard.csv"
    assert captured.err == f"data error: {hazard}: line {line}: {message}\n"


def test_one_row_hazard_file_is_a_data_error_naming_it(tmp_path, capsys):
    argv = _risk_files(tmp_path, hazard_rows="1.0,2.0\n",
                       vulnerability_rows="1.0,0.2,0.5\n") + ["--losses", "0.5"]
    assert main(argv) == EXIT_DATA
    hazard = tmp_path / "hazard.csv"
    assert capsys.readouterr().err == (
        f"data error: {hazard}: need at least 2 hazard points, got 1\n"
    )


def test_short_vulnerability_file_is_a_data_error_naming_it(tmp_path, capsys):
    argv = _risk_files(tmp_path, vulnerability_rows="1.0,0.2,0.5\n") + ["--losses", "0.5"]
    assert main(argv) == EXIT_DATA
    vulnerability = tmp_path / "vulnerability.csv"
    assert capsys.readouterr().err == (
        f"data error: {vulnerability}: vulnerability has 1 points, hazard has 2\n"
    )


def test_negative_loss_is_a_data_error_in_a_file_and_a_usage_error_in_a_flag(tmp_path, capsys):
    losses = tmp_path / "losses.csv"
    losses.write_text("x\n0.5\n-1\n")
    assert main(_risk_files(tmp_path) + ["--loss-csv", str(losses)]) == EXIT_DATA
    assert capsys.readouterr().err == (
        f"data error: {losses}: line 3: loss must be non-negative, got -1.0\n"
    )
    assert main(_risk_files(tmp_path) + ["--losses=0.5,-1"]) == EXIT_USAGE
    assert "loss must be non-negative" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["x\n", "x", "\nx\n\n \n"], ids=["header", "no-newline", "blanks"])
def test_header_only_loss_csv_is_a_data_error_naming_it(tmp_path, capsys, text):
    # It printed an empty curve with exit 0; the other readers and --losses "" reject no rows.
    losses = tmp_path / "losses.csv"
    losses.write_text(text)
    assert main(_risk_files(tmp_path) + ["--loss-csv", str(losses)]) == EXIT_DATA
    assert capsys.readouterr() == ("", f"data error: {losses}: no data rows\n")


@pytest.mark.parametrize("reader", ["csv", "hazard", "vulnerability", "losses"])
@pytest.mark.parametrize("bom", [b"", b"\xef\xbb\xbf"], ids=["plain", "bom"])
def test_non_utf8_input_is_a_data_error_naming_the_byte(tmp_path, capsys, reader, bom):
    files = {"csv": b"month,value\n1,10\n2,\xff\n", "hazard": b"s,G\n1.0,2.0\n2.0,\xff\n",
             "vulnerability": b"s,mean_loss,cov\n1.0,0.2,0.5\n2.0,\xff,0.5\n",
             "losses": b"x\n0.5\n\xff\n"}
    risk = _risk_files(tmp_path)
    path = tmp_path / f"{reader}.csv"
    path.write_bytes(bom + files[reader])
    argv = {"csv": ["analyze", str(path)], "hazard": risk + ["--losses", "0.5"],
            "vulnerability": risk + ["--losses", "0.5"],
            "losses": risk + ["--loss-csv", str(path)]}[reader]
    assert main(argv) == EXIT_DATA
    captured = capsys.readouterr()
    assert captured.out == ""
    offset = len(bom) + files[reader].index(b"\xff")
    assert captured.err == f"data error: {path}: not UTF-8 text: byte 0xff at offset {offset}\n"


def test_non_finite_loss_flag_is_a_usage_error(tmp_path, capsys):
    assert main(_risk_files(tmp_path) + ["--losses", "nan,inf"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "loss grid must be finite" in captured.err


@pytest.mark.parametrize("flags", [
    ["--mu", "nan", "--sigma", "1", "--xi", "0", "--x", "1"],
    ["--mu", "0", "--sigma", "1", "--xi", "0", "--x", "nan,inf,1"],
])
def test_non_finite_gev_pdf_flag_is_a_usage_error(capsys, flags):
    assert main(["gev-pdf", *flags]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "must be finite" in captured.err


# ------------------------------------------------------ process level

def _python(*args, **kwargs):
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.run([sys.executable, *args], env=env, **kwargs)


def test_closed_stdout_exits_141_quietly(fixture_path):
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before anything is written
    try:
        done = _python("-m", "riskseries", "analyze", fixture_path, "--format", "json",
                       stdout=write_end, stderr=subprocess.PIPE, timeout=120)
    finally:
        os.close(write_end)
    assert done.returncode == EXIT_BROKEN_PIPE
    assert done.stderr == b""


def test_module_entry_points(fixture_path, capsys):
    assert main(["summarize", fixture_path, "--format", "json"]) == EXIT_OK
    expected = capsys.readouterr().out
    done = _python("-m", "riskseries", "summarize", fixture_path, "--format", "json",
                   capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stdout, done.stderr) == (EXIT_OK, expected, "")

    done = _python("-m", "riskseries.cli", capture_output=True, text=True, timeout=120)
    assert done.returncode == EXIT_USAGE
    assert "usage error" in done.stderr


def test_importing_every_module_runs_no_command(capsys):
    # Tools that walk the package (tracers, doc generators) import
    # riskseries.__main__ too; only python -m may start the CLI.
    import riskseries

    for info in pkgutil.iter_modules(riskseries.__path__):
        importlib.import_module(f"riskseries.{info.name}")
    assert capsys.readouterr() == ("", "")


def test_every_exported_name_resolves():
    import riskseries

    assert len(set(riskseries.__all__)) == len(riskseries.__all__)
    missing = [name for name in riskseries.__all__ if not hasattr(riskseries, name)]
    assert missing == []


def test_successive_main_calls_match_fresh_processes(fixture_path, capsys):
    # The parser is built once per process; a flag given in one call must
    # not leak into the next.
    from riskseries.cli import build_parser

    assert build_parser() is build_parser()
    runs = [
        ["analyze", fixture_path, "--threshold", "150", "--format", "json"],
        ["analyze", fixture_path, "--format", "text"],
        ["ar", fixture_path, "--max-lag", "2", "--detrend", "--format", "json"],
        ["ar", fixture_path, "--format", "text"],
        ["residuals", fixture_path, "--lag", "2", "--outlier-threshold", "1.5"],
        ["residuals", fixture_path, "--format", "json"],
        ["peaks", fixture_path, "--block-size", "4", "--format", "json"],
    ]
    for argv in runs:
        code = main(argv)
        captured = capsys.readouterr()
        done = _python("-m", "riskseries", *argv, capture_output=True, text=True, timeout=120)
        assert (code, captured.out, captured.err) == (done.returncode, done.stdout, done.stderr)
