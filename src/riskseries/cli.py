"""Command-line front end.

Subcommands cover each analysis (summarize, peaks, trend, ar, residuals,
gev-pdf, risk-curve) plus ``analyze``, which runs the whole pipeline:
optional POT extraction, descriptive statistics, trend fit and removal,
Mann-Kendall, AR fits at every order up to the configured maximum on both
the raw and detrended series (orders the series is too short for share one
skip entry), lag-1 correlations, order selection, and residual analysis of
the raw AR(1).

Exit codes are stable: 0 success, 1 usage error, 2 data error,
3 numerical error, 141 when the reader closed stdout early. Text output
is rendered (by ``riskseries._text``) from the same dictionary the JSON
mode emits, so the two never disagree.

The code is split by concern, and a command loads only what it runs:

- this module: the parser, the series commands and ``main``;
- ``_readers``: the series CSV reader, and ``_read_table``, the one reader
  of the hazard, vulnerability and loss files;
- ``_pipeline``: ``AnalysisConfig``, ``PipelineReport`` and ``run_pipeline``;
- ``_report``: the report dicts, the JSON writer and ``render``;
- ``_risk_commands``: ``gev-pdf``, ``risk-curve`` and the readers of
  their input files, each a header and the ``evt_risk`` rules it passes
  to ``_read_table``.

Every command loads the first four. ``gev-pdf`` and ``risk-curve`` also
load ``_risk_commands`` and ``evt_risk``, and ``--format text`` loads
``_text``; no other command loads any of those three. This module
re-exports ``ColumnTable``, ``SCHEMA_VERSION``, ``regression_to_dict``,
``PipelineReport`` and ``DETREND_DISABLED``; import the risk readers,
``parse_hazard_csv`` and ``parse_vulnerability_csv``, from ``_risk_commands``.
"""
from __future__ import annotations

import argparse
import functools
import math
import os
import re
import sys
from pathlib import Path
from typing import Sequence

from . import autoreg, peaks, residuals, trend
from ._pipeline import (DETREND_DISABLED, AnalysisConfig, PipelineReport, _check_max_lag,
                        run_pipeline)
from ._readers import DECIMAL_COMMA, DECIMAL_POINT, parse_csv
from ._report import (
    SCHEMA_VERSION,
    ColumnTable,
    _ar_models_to_dict,
    _record_to_dict,
    event_series_to_dict,
    pipeline_to_dict,
    regression_to_dict,
    render,
    residuals_to_dict,
)
from .dist import _check_alpha
from .errors import DataError, NumericalError, UsageError
from .series import TimeSeries, summarize

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERICAL = 3
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, as a shell reports a reader that hung up

def _finite_float(text: str) -> float:
    """argparse type for a single finite float flag."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


# ------------------------------------------------------------- commands

class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # A value such as -1,0,1, -1e3, -.5, -inf or -NaN,1 is a value, not an
        # option: argparse alone takes only -5 and -0.5 so. No option starts
        # with a digit, and -h is the one short option.
        self._negative_number_matcher = re.compile(r"-(\.?\d|(inf|infinity|nan)(,|$))", re.I)

    def error(self, message):  # argparse would exit(2); keep our code mapping
        raise UsageError(message)


def _add_io_flags(parser: argparse.ArgumentParser, plot_data: bool = False):
    parser.add_argument("--decimal-comma", action="store_true",
                        help="parse values with comma decimals (e.g. 195,2)")
    parser.add_argument("--format", choices=("text", "json"), default="text",
                        help="output format (default text)")
    if plot_data:
        parser.add_argument("--plot-data", metavar="DIR",
                            help="write residual_plot.csv and probability_plot.csv here")


@functools.lru_cache(maxsize=None)
def build_parser() -> _Parser:
    """The command-line parser, built once per process; parsing leaves it unchanged."""
    parser = _Parser(prog="riskseries",
                     description="Extreme-event time-series and risk-curve analysis")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("summarize", help="descriptive statistics of a series")
    p.add_argument("input")
    _add_io_flags(p)

    p = sub.add_parser("peaks", help="extract extreme events")
    p.add_argument("input")
    p.add_argument("--threshold", type=_finite_float, help="POT threshold")
    p.add_argument("--comparison", choices=peaks._COMPARISONS,
                   default=peaks.STRICTLY_ABOVE)
    p.add_argument("--zero-fill", action="store_true",
                   help="keep every slot, zeroing sub-threshold values")
    p.add_argument("--block-size", type=int, help="block maxima block size")
    _add_io_flags(p)

    p = sub.add_parser("trend", help="fit a linear trend, optionally Mann-Kendall")
    p.add_argument("input")
    p.add_argument("--mann-kendall", action="store_true")
    p.add_argument("--alpha", type=_finite_float, default=0.05)
    _add_io_flags(p)

    p = sub.add_parser("ar", help="autoregressive fits and order selection")
    p.add_argument("input")
    p.add_argument("--max-lag", type=int, default=3)
    p.add_argument("--alpha", type=_finite_float, default=0.05)
    p.add_argument("--detrend", action="store_true",
                   help="fit on the detrended series instead of the raw one")
    _add_io_flags(p)

    p = sub.add_parser("residuals", help="residual analysis of an AR fit")
    p.add_argument("input")
    p.add_argument("--lag", type=int, default=1)
    p.add_argument("--detrend", action="store_true")
    p.add_argument("--outlier-threshold", type=_finite_float, default=3.0)
    _add_io_flags(p, plot_data=True)

    p = sub.add_parser("gev-pdf", help="generalized extreme value density")
    p.add_argument("--mu", type=_finite_float, required=True)
    p.add_argument("--sigma", type=_finite_float, required=True)
    p.add_argument("--xi", type=_finite_float, required=True)
    p.add_argument("--x", required=True, help="comma-separated evaluation points")
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("risk-curve", help="loss-exceedance curve from hazard and vulnerability")
    p.add_argument("--hazard", required=True, help="CSV with header s,G")
    p.add_argument("--vulnerability", required=True, help="CSV with header s,mean_loss,cov")
    p.add_argument("--losses", help="comma-separated loss grid")
    p.add_argument("--loss-csv", help="CSV with header x")
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("analyze", help="full pipeline")
    p.add_argument("input")
    p.add_argument("--threshold", type=_finite_float, help="apply POT extraction first")
    p.add_argument("--comparison", choices=peaks._COMPARISONS,
                   default=peaks.STRICTLY_ABOVE)
    p.add_argument("--max-lag", type=int, default=3)
    p.add_argument("--alpha", type=_finite_float, default=0.05)
    p.add_argument("--outlier-threshold", type=_finite_float, default=3.0)
    p.add_argument("--no-detrend", action="store_true",
                   help="skip the detrended branch of the pipeline")
    _add_io_flags(p, plot_data=True)

    return parser


def _decimal(args) -> str:
    return DECIMAL_COMMA if getattr(args, "decimal_comma", False) else DECIMAL_POINT


def _write_plot_csvs(directory: str, report: residuals.ResidualReport):
    out_dir = Path(directory)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        residual_points, probability_points = residuals.plot_data(report)
        for name, points in (
            ("residual_plot.csv", residual_points),
            ("probability_plot.csv", probability_points),
        ):
            lines = ["x,y"] + [f"{x!r},{y!r}" for x, y in points]
            (out_dir / name).write_text("\n".join(lines) + "\n", encoding="utf-8")
    except OSError as exc:
        raise UsageError(
            f"cannot write plot data to {directory}: {exc.strerror or exc}"
        ) from None


def _cmd_summarize(args) -> str:
    series = parse_csv(args.input, _decimal(args))
    payload = _record_to_dict(summarize(series))
    return render(payload, args.format, "summary", f"summary of {args.input}")


def _cmd_peaks(args) -> str:
    series = parse_csv(args.input, _decimal(args))
    has_threshold = args.threshold is not None
    has_block = args.block_size is not None
    if has_threshold == has_block:
        raise UsageError("provide exactly one of --threshold or --block-size")
    if has_block:
        events = peaks.block_maxima(series, args.block_size)
    else:
        spec = peaks.ThresholdSpec(threshold=args.threshold, comparison=args.comparison)
        events = peaks.pot_zerofill(series, spec) if args.zero_fill \
            else peaks.pot_compact(series, spec)
    payload = event_series_to_dict(events)
    return render(payload, args.format, "events")


def _cmd_trend(args) -> str:
    _check_alpha(args.alpha)
    series = parse_csv(args.input, _decimal(args))
    line = trend.fit_trend(series)
    payload = {"trend": _record_to_dict(line)}
    if args.mann_kendall:
        payload["mann_kendall"] = _record_to_dict(trend.mann_kendall(series, args.alpha))
    return render(payload, args.format, "trend")


def _prepare_ar_series(args) -> tuple[TimeSeries, str]:
    series = parse_csv(args.input, _decimal(args))
    if args.detrend:
        detrended = trend.detrend(series, trend.fit_trend(series))
        return detrended, autoreg.DETRENDED
    return series, autoreg.RAW


def _cmd_ar(args) -> str:
    autoreg.z_alpha_threshold(args.alpha)
    source, label = _prepare_ar_series(args)
    _check_max_lag(args.max_lag)
    n = len(source)
    if args.max_lag > autoreg.max_order(n):
        # The first order too high for the data fails as its fit would, before any fit runs.
        autoreg.check_length(max(autoreg.max_order(n), 0) + 1, n)
    models = {}
    for p, model in autoreg.fit_orders(source, args.max_lag, label):
        if not isinstance(model, autoreg.ARModel):
            raise model
        models[p] = model
    payload = {
        "fitted_on": label,
        "ar": _ar_models_to_dict(models),
        "order_selection": _record_to_dict(
            autoreg.select_order(list(models.values()), args.alpha)
        ),
    }
    return render(payload, args.format, "ar")


def _cmd_residuals(args) -> str:
    source, label = _prepare_ar_series(args)
    model = autoreg.fit_ar(source, args.lag, fitted_on=label)
    report = residuals.residual_analysis(model, source, args.outlier_threshold)
    if args.plot_data:
        _write_plot_csvs(args.plot_data, report)
    payload = {"model": {"p": model.p, "fitted_on": label}, **residuals_to_dict(report)}
    return render(payload, args.format, "residuals")


def _cmd_risk(args) -> str:
    """``gev-pdf`` or ``risk-curve``, from the module only they import."""
    from . import _risk_commands

    return _risk_commands.COMMANDS[args.command](args)


def _cmd_analyze(args) -> str:
    threshold = None
    if args.threshold is not None:
        threshold = peaks.ThresholdSpec(threshold=args.threshold, comparison=args.comparison)
    config = AnalysisConfig(
        input=args.input,
        decimal=_decimal(args),
        threshold=threshold,
        max_lag=args.max_lag,
        alpha=args.alpha,
        detrend=not args.no_detrend,
        outlier_threshold=args.outlier_threshold,
    )
    series = parse_csv(config.input, config.decimal)
    report = run_pipeline(series, config)
    if args.plot_data and not isinstance(report.residuals_raw_ar1, str):
        _write_plot_csvs(args.plot_data, report.residuals_raw_ar1)
    return render(pipeline_to_dict(report), args.format, "pipeline")


_COMMANDS = {
    "summarize": _cmd_summarize,
    "peaks": _cmd_peaks,
    "trend": _cmd_trend,
    "ar": _cmd_ar,
    "residuals": _cmd_residuals,
    "gev-pdf": _cmd_risk,
    "risk-curve": _cmd_risk,
    "analyze": _cmd_analyze,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        output = _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (NumericalError, OverflowError) as exc:
        # OverflowError: finite input whose squares or sums leave the doubles.
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    try:
        sys.stdout.write(output)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader hung up. Point stdout at devnull so the interpreter's
        # final flush cannot fail again, and exit quietly as a shell would.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    return EXIT_OK


def run():  # console entry point
    raise SystemExit(main())


if __name__ == "__main__":
    run()
