"""Command-line front end.

Subcommands cover each analysis (summarize, peaks, trend, ar, residuals,
gev-pdf, risk-curve) plus ``analyze``, which runs the whole pipeline:
optional POT extraction, descriptive statistics, trend fit and removal,
Mann-Kendall, AR fits at every order up to the configured maximum on both
the raw and detrended series, lag-1 correlations, order selection, and
residual analysis of the raw AR(1).

Exit codes are stable: 0 success, 1 usage error, 2 data error,
3 numerical error, 141 when the reader closed stdout early. Text output
is rendered from the same dictionary the JSON mode emits, so the two
never disagree.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from . import autoreg, evt_risk, peaks, residuals, trend
from .errors import DataError, NumericalError, UsageError
from .series import SummaryStats, TimeSeries, summarize

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERICAL = 3
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, as a shell reports a reader that hung up

DECIMAL_POINT = "point"
DECIMAL_COMMA = "comma"

DETREND_DISABLED = "detrending disabled by configuration"


@dataclass(frozen=True)
class AnalysisConfig:
    input_path: str
    decimal: str = DECIMAL_POINT
    threshold: peaks.ThresholdSpec | None = None
    max_lag: int = 3
    alpha: float = 0.05
    detrend: bool = True
    outlier_threshold: float = 3.0
    output_format: str = "text"
    plot_data_dir: str | None = None

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise UsageError(f"alpha must be in (0, 1), got {self.alpha!r}")
        if self.max_lag < 1:
            raise UsageError(f"max lag must be >= 1, got {self.max_lag!r}")


@dataclass(frozen=True)
class PipelineReport:
    """Every pipeline product, or the reason it was skipped (a string)."""

    config: AnalysisConfig
    series_n: int
    pot_events: peaks.EventSeries | str
    summary_raw: SummaryStats
    summary_detrended: SummaryStats | str
    trend_line: trend.TrendLine
    mk: trend.MKResult | str
    ar_raw: tuple[autoreg.ARModel | str, ...]
    ar_detrended: tuple[autoreg.ARModel | str, ...] | str
    lag1_raw: float | str
    lag1_detrended: float | str
    order_raw: autoreg.OrderSelectionTrace | str
    order_detrended: autoreg.OrderSelectionTrace | str
    residuals_raw_ar1: residuals.ResidualReport | str


# ----------------------------------------------------------------- parsing

def _read_rows(path: str) -> list[tuple[int, str]]:
    """The non-blank lines of a file, each with its 1-based line number."""
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except FileNotFoundError:
        raise DataError(f"input file not found: {path}") from None
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from None
    return [(i, line) for i, line in enumerate(text.splitlines(), start=1) if line.strip()]


def _finite_row(path: str, lineno: int, cells: list[str], what: str) -> tuple[float, ...]:
    """The floats of one CSV row; a bad or non-finite cell is a data error."""
    try:
        values = tuple(float(cell) for cell in cells)
    except ValueError:
        raise DataError(f"{path}: line {lineno}: cannot parse {what}") from None
    if not all(map(math.isfinite, values)):
        raise DataError(f"{path}: line {lineno}: {what} must be finite, got {','.join(cells)}")
    return values


def _finite_list(text: str, what: str) -> tuple[float, ...]:
    """Comma-separated finite floats from a flag; a bad one is a usage error."""
    try:
        values = tuple(float(cell) for cell in text.split(","))
    except ValueError:
        raise UsageError(f"cannot parse {what} {text!r}") from None
    if not all(map(math.isfinite, values)):
        raise UsageError(f"{what} must be finite, got {text!r}")
    return values


def _finite_float(text: str) -> float:
    """argparse type for a single finite float flag."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def _split_row(line: str, decimal: str) -> list[str]:
    if decimal == DECIMAL_COMMA and ";" in line:
        return [cell.strip() for cell in line.split(";")]
    return [cell.strip() for cell in line.split(",")]


def parse_csv(path: str, decimal: str = DECIMAL_POINT) -> TimeSeries:
    """Read a ``month,value`` CSV into a TimeSeries.

    With decimal="comma" the file may either use ';' as the column
    separator with ',' decimals (``79;195,2``) or plain commas, in which
    case a three-field row is read as month, integer part, fraction
    (``79,195,2``).
    """
    if decimal not in (DECIMAL_POINT, DECIMAL_COMMA):
        raise UsageError(f"decimal must be 'point' or 'comma', got {decimal!r}")
    rows = _read_rows(path)
    if not rows:
        raise DataError(f"{path}: file is empty")
    header_no, header = rows[0]
    header_cells = [c.lower() for c in _split_row(header, decimal)]
    if header_cells[:2] != ["month", "value"]:
        raise DataError(f"{path}: line {header_no}: expected header 'month,value'")
    if len(rows) == 1:
        raise DataError(f"{path}: no data rows")
    months, values = [], []
    for lineno, line in rows[1:]:
        cells = _split_row(line, decimal)
        if decimal == DECIMAL_COMMA and len(cells) == 3:
            cells = [cells[0], cells[1] + "." + cells[2]]
        if len(cells) != 2:
            raise DataError(f"{path}: line {lineno}: expected 2 fields, got {len(cells)}")
        month_text, value_text = cells
        try:
            month = int(month_text)
        except ValueError:
            raise DataError(
                f"{path}: line {lineno}: cannot parse month {month_text!r}"
            ) from None
        if decimal == DECIMAL_COMMA:
            value_text = value_text.replace(",", ".")
        try:
            value = float(value_text)
        except ValueError:
            raise DataError(
                f"{path}: line {lineno}: cannot parse value {value_text!r}"
            ) from None
        months.append(month)
        values.append(value)
    try:
        return TimeSeries(months, values)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None


def parse_hazard_csv(path: str) -> evt_risk.HazardCurve:
    rows = _read_rows(path)
    if not rows or [c.strip().lower() for c in rows[0][1].split(",")] != ["s", "g"]:
        raise DataError(f"{path}: expected header 's,G'")
    points = []
    for lineno, line in rows[1:]:
        cells = [c.strip() for c in line.split(",")]
        if len(cells) != 2:
            raise DataError(f"{path}: line {lineno}: expected 2 fields")
        points.append(_finite_row(path, lineno, cells, "hazard point"))
    if not points:
        raise DataError(f"{path}: no data rows")
    return evt_risk.HazardCurve(tuple(points))


def parse_vulnerability_csv(
    path: str, hazard: evt_risk.HazardCurve
) -> tuple[evt_risk.VulnerabilityPoint, ...]:
    """Read one ``s,mean_loss,cov`` row per intensity of the hazard grid."""
    rows = _read_rows(path)
    expected = ["s", "mean_loss", "cov"]
    if not rows or [c.strip().lower() for c in rows[0][1].split(",")] != expected:
        raise DataError(f"{path}: expected header 's,mean_loss,cov'")
    grid = hazard.s
    points = []
    for i, (lineno, line) in enumerate(rows[1:]):
        cells = [c.strip() for c in line.split(",")]
        if len(cells) != 3:
            raise DataError(f"{path}: line {lineno}: expected 3 fields")
        s, mean_loss, cov = _finite_row(path, lineno, cells, "vulnerability point")
        try:
            points.append(evt_risk.VulnerabilityPoint(s=s, mean_loss=mean_loss, cov=cov))
        except UsageError as exc:
            raise DataError(f"{path}: line {lineno}: {exc}") from None
        if i == len(grid):
            raise DataError(f"{path}: line {lineno}: row beyond the {len(grid)}-point hazard grid")
        if s != grid[i]:
            raise DataError(
                f"{path}: line {lineno}: vulnerability grid is misaligned: "
                f"s={s} vs hazard s={grid[i]}"
            )
    if not points:
        raise DataError(f"{path}: no data rows")
    if len(points) != len(grid):
        raise DataError(f"{path}: vulnerability has {len(points)} points, hazard has {len(grid)}")
    return tuple(points)


def _parse_loss_grid(flag_value: str | None, csv_path: str | None) -> tuple[float, ...]:
    if (flag_value is None) == (csv_path is None):
        raise UsageError("provide exactly one of --losses or --loss-csv")
    if flag_value is not None:
        return _finite_list(flag_value, "loss grid")
    rows = _read_rows(csv_path)
    if not rows or rows[0][1].strip().lower() != "x":
        raise DataError(f"{csv_path}: expected header 'x'")
    losses = []
    for lineno, line in rows[1:]:
        (x,) = _finite_row(csv_path, lineno, [line.strip()], "loss grid")
        if x < 0.0:
            raise DataError(f"{csv_path}: line {lineno}: loss must be non-negative, got {x!r}")
        losses.append(x)
    return tuple(losses)


# ---------------------------------------------------------------- pipeline

def run_pipeline(series: TimeSeries, config: AnalysisConfig) -> PipelineReport:
    """Run every analysis stage; failures of optional stages become skips."""
    if config.threshold is not None:
        events = peaks.pot_compact(series, config.threshold)
        pot_section: peaks.EventSeries | str = events
        working: TimeSeries = events
        if len(working) == 0:
            raise DataError(
                f"threshold {config.threshold.threshold} removed every observation"
            )
    else:
        pot_section = "no threshold configured"
        working = series

    summary_raw = summarize(working)
    trend_line = trend.fit_trend(working)

    if config.detrend:
        detrended: TimeSeries | None = trend.detrend(working, trend_line)
        summary_detrended: SummaryStats | str = summarize(detrended)
    else:
        detrended = None
        summary_detrended = DETREND_DISABLED

    try:
        mk_result: trend.MKResult | str = trend.mann_kendall(working, config.alpha)
    except (UsageError, NumericalError) as exc:
        mk_result = str(exc)

    def fit_all(source: TimeSeries, label: str) -> tuple[autoreg.ARModel | str, ...]:
        models: list[autoreg.ARModel | str] = []
        for p in range(1, config.max_lag + 1):
            try:
                models.append(autoreg.fit_ar(source, p, fitted_on=label))
            except (UsageError, NumericalError) as exc:
                models.append(str(exc))
        return tuple(models)

    ar_raw = fit_all(working, autoreg.RAW)
    ar_detrended: tuple[autoreg.ARModel | str, ...] | str
    if detrended is not None:
        ar_detrended = fit_all(detrended, autoreg.DETRENDED)
    else:
        ar_detrended = DETREND_DISABLED

    def lag1(source: TimeSeries | None) -> float | str:
        if source is None:
            return DETREND_DISABLED
        try:
            return autoreg.lag_correlation(source, 1)
        except (UsageError, NumericalError) as exc:
            return str(exc)

    def order(models: tuple[autoreg.ARModel | str, ...] | str):
        if isinstance(models, str):
            return models
        failed = [model for model in models if isinstance(model, str)]
        return failed[-1] if failed else autoreg.select_order(models, config.alpha)

    lag1_raw = lag1(working)
    lag1_detrended = lag1(detrended)
    order_raw = order(ar_raw)
    order_detrended = order(ar_detrended)

    first_raw = ar_raw[0]
    if isinstance(first_raw, autoreg.ARModel):
        residual_report: residuals.ResidualReport | str = residuals.residual_analysis(
            first_raw, working, config.outlier_threshold
        )
    else:
        residual_report = f"raw AR(1) unavailable: {first_raw}"

    return PipelineReport(
        config=config,
        series_n=len(series),
        pot_events=pot_section,
        summary_raw=summary_raw,
        summary_detrended=summary_detrended,
        trend_line=trend_line,
        mk=mk_result,
        ar_raw=ar_raw,
        ar_detrended=ar_detrended,
        lag1_raw=lag1_raw,
        lag1_detrended=lag1_detrended,
        order_raw=order_raw,
        order_detrended=order_detrended,
        residuals_raw_ar1=residual_report,
    )


# ------------------------------------------------------- dict conversion

def _skip(reason: str) -> dict:
    return {"skipped": reason}


def summary_to_dict(stats: SummaryStats) -> dict:
    return {
        "n": stats.n,
        "mean": stats.mean,
        "variance": stats.variance,
        "std_dev": stats.std_dev,
        "min": stats.min,
        "max": stats.max,
    }


def regression_to_dict(model: autoreg.ARModel) -> dict:
    report = model.report
    coefficients = []
    for j, stat in enumerate(report.coefficients):
        coefficients.append(
            {
                "term": "intercept" if j == 0 else f"x{j}",
                "estimate": stat.estimate,
                "std_error": stat.std_error,
                "t_stat": stat.t_stat,
                "p_value": stat.p_value,
                "ci_lower_95": stat.ci_lower_95,
                "ci_upper_95": stat.ci_upper_95,
            }
        )
    anova = report.anova
    return {
        "p": model.p,
        "fitted_on": model.fitted_on,
        "n": report.n,
        "r_multiple": report.r_multiple,
        "r_squared": report.r_squared,
        "r_squared_adj": report.r_squared_adj,
        "std_error_regression": report.std_error_regression,
        "anova": {
            "df_regression": anova.df_regression,
            "df_residual": anova.df_residual,
            "regression_ss": anova.regression_ss,
            "residual_ss": anova.residual_ss,
            "total_ss": anova.total_ss,
            "regression_ms": anova.regression_ms,
            "residual_ms": anova.residual_ms,
            "f_stat": anova.f_stat,
            "significance_f": anova.significance_f,
        },
        "coefficients": coefficients,
    }


def trace_to_dict(trace: autoreg.OrderSelectionTrace) -> dict:
    return {
        "alpha": trace.alpha,
        "selected_order": trace.selected_order,
        "steps": [
            {
                "p": step.p,
                "coefficient": step.coefficient,
                "std_error": step.std_error,
                "z": step.z,
                "z_alpha": step.z_alpha,
                "decision": step.decision,
            }
            for step in trace.steps
        ],
    }


def residuals_to_dict(report: residuals.ResidualReport) -> dict:
    return {
        "n": len(report.rows),
        "scale": report.scale,
        "regression_std_error": report.regression_std_error,
        "outlier_threshold": report.outlier_threshold,
        "outliers": [row.observation_id for row in report.rows if row.outlier],
        "rows": [
            {
                "observation_id": row.observation_id,
                "y": row.y,
                "y_predicted": row.y_predicted,
                "residual": row.residual,
                "standardized": row.standardized,
                "percentile": row.percentile,
                "outlier": row.outlier,
            }
            for row in report.rows
        ],
    }


def mk_to_dict(result: trend.MKResult) -> dict:
    return {
        "S": result.S,
        "var_S": result.var_S,
        "Z": result.Z,
        "p_value": result.p_value,
        "decision": result.decision,
        "alpha": result.alpha,
    }


def event_series_to_dict(events: peaks.EventSeries) -> dict:
    provenance = events.provenance
    return {
        "provenance": {
            "method": provenance.method,
            "block_size": provenance.block_size,
            "threshold": provenance.threshold,
            "comparison": provenance.comparison,
            "zero_filled": provenance.zero_filled,
        },
        "n": len(events),
        "observations": [list(p) for p in zip(events.indices.tolist(), events.values.tolist())],
    }


def _maybe(value, converter):
    return converter(value) if not isinstance(value, str) else _skip(value)


def pipeline_to_dict(report: PipelineReport) -> dict:
    config = report.config
    threshold = config.threshold
    ar_block = {}
    ar_block["raw"] = {
        f"p{p}": _maybe(model, regression_to_dict)
        for p, model in enumerate(report.ar_raw, start=1)
    }
    if isinstance(report.ar_detrended, str):
        ar_block["detrended"] = _skip(report.ar_detrended)
    else:
        ar_block["detrended"] = {
            f"p{p}": _maybe(model, regression_to_dict)
            for p, model in enumerate(report.ar_detrended, start=1)
        }
    return {
        "schema_version": SCHEMA_VERSION,
        "config": {
            "input": config.input_path,
            "decimal": config.decimal,
            "threshold": None if threshold is None else {
                "threshold": threshold.threshold,
                "comparison": threshold.comparison,
            },
            "max_lag": config.max_lag,
            "alpha": config.alpha,
            "detrend": config.detrend,
            "outlier_threshold": config.outlier_threshold,
        },
        "series": {"n": report.series_n},
        "pot": _maybe(report.pot_events, event_series_to_dict),
        "summary": {
            "raw": summary_to_dict(report.summary_raw),
            "detrended": _maybe(report.summary_detrended, summary_to_dict),
        },
        "trend": {
            "intercept": report.trend_line.intercept,
            "slope": report.trend_line.slope,
            "n": report.trend_line.source_n,
        },
        "mann_kendall": _maybe(report.mk, mk_to_dict),
        "lag_correlation": {
            "raw": report.lag1_raw if not isinstance(report.lag1_raw, str)
            else _skip(report.lag1_raw),
            "detrended": report.lag1_detrended
            if not isinstance(report.lag1_detrended, str)
            else _skip(report.lag1_detrended),
        },
        "ar": ar_block,
        "order_selection": {
            "raw": _maybe(report.order_raw, trace_to_dict),
            "detrended": _maybe(report.order_detrended, trace_to_dict),
        },
        "residuals": _maybe(report.residuals_raw_ar1, residuals_to_dict),
    }


# ---------------------------------------------------------------- render

def _fmt(value) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:.9g}"
    if value is None:
        return "-"
    return str(value)


def _table(rows: list[list[str]], indent: str = "  ") -> list[str]:
    widths = [max(len(row[c]) for row in rows) for c in range(len(rows[0]))]
    return [
        indent + "  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip()
        for row in rows
    ]


def _regression_lines(d: dict, title: str) -> list[str]:
    if "skipped" in d:
        return [f"{title}: skipped ({d['skipped']})", ""]
    lines = [title]
    lines += _table([
        ["r multiple", _fmt(d["r_multiple"])],
        ["r squared", _fmt(d["r_squared"])],
        ["r squared adjusted", _fmt(d["r_squared_adj"])],
        ["standard error", _fmt(d["std_error_regression"])],
        ["observations", _fmt(d["n"])],
    ])
    anova = d["anova"]
    lines.append("  anova")
    lines += _table([
        ["source", "df", "ss", "ms", "f", "significance f"],
        ["regression", _fmt(anova["df_regression"]), _fmt(anova["regression_ss"]),
         _fmt(anova["regression_ms"]), _fmt(anova["f_stat"]), _fmt(anova["significance_f"])],
        ["residual", _fmt(anova["df_residual"]), _fmt(anova["residual_ss"]),
         _fmt(anova["residual_ms"]), "", ""],
        ["total", _fmt(anova["df_regression"] + anova["df_residual"]),
         _fmt(anova["total_ss"]), "", "", ""],
    ], indent="    ")
    lines.append("  coefficients")
    coefficient_rows = [["term", "estimate", "std error", "t stat", "p value",
                         "lower 95%", "upper 95%"]]
    for c in d["coefficients"]:
        coefficient_rows.append([
            c["term"], _fmt(c["estimate"]), _fmt(c["std_error"]), _fmt(c["t_stat"]),
            _fmt(c["p_value"]), _fmt(c["ci_lower_95"]), _fmt(c["ci_upper_95"]),
        ])
    lines += _table(coefficient_rows, indent="    ")
    lines.append("")
    return lines


def _summary_lines(d: dict, title: str) -> list[str]:
    if "skipped" in d:
        return [f"{title}: skipped ({d['skipped']})", ""]
    return [
        title,
        *_table([
            ["n", _fmt(d["n"])],
            ["mean", _fmt(d["mean"])],
            ["variance", _fmt(d["variance"])],
            ["std dev", _fmt(d["std_dev"])],
            ["min", _fmt(d["min"])],
            ["max", _fmt(d["max"])],
        ]),
        "",
    ]


def _mk_lines(d: dict) -> list[str]:
    if "skipped" in d:
        return [f"mann-kendall: skipped ({d['skipped']})", ""]
    return [
        "mann-kendall",
        *_table([
            ["S", _fmt(d["S"])],
            ["var(S)", _fmt(d["var_S"])],
            ["Z", _fmt(d["Z"])],
            ["p value", _fmt(d["p_value"])],
            ["decision", f"{d['decision']} (alpha {_fmt(d['alpha'])})"],
        ]),
        "",
    ]


def _trace_lines(d: dict, title: str) -> list[str]:
    if "skipped" in d:
        return [f"{title}: skipped ({d['skipped']})", ""]
    lines = [f"{title} (alpha {_fmt(d['alpha'])})"]
    rows = [["p", "coefficient", "std error", "z", "z_alpha", "decision"]]
    for step in d["steps"]:
        rows.append([
            _fmt(step["p"]), _fmt(step["coefficient"]), _fmt(step["std_error"]),
            _fmt(step["z"]), _fmt(step["z_alpha"]), step["decision"],
        ])
    lines += _table(rows)
    lines.append(f"  selected order: {d['selected_order']}")
    lines.append("")
    return lines


def _residual_lines(d: dict, title: str = "residuals (raw AR(1))") -> list[str]:
    if "skipped" in d:
        return [f"{title}: skipped ({d['skipped']})", ""]
    lines = [title]
    lines += _table([
        ["scale (rss/(n-1))", _fmt(d["scale"])],
        ["regression std error", _fmt(d["regression_std_error"])],
        ["outlier threshold", _fmt(d["outlier_threshold"])],
        ["outliers", ", ".join(str(i) for i in d["outliers"]) or "none"],
    ])
    rows = [["obs", "y", "predicted", "residual", "standardized", "percentile", "outlier"]]
    for row in d["rows"]:
        rows.append([
            _fmt(row["observation_id"]), _fmt(row["y"]), _fmt(row["y_predicted"]),
            _fmt(row["residual"]), _fmt(row["standardized"]), _fmt(row["percentile"]),
            _fmt(row["outlier"]),
        ])
    lines += _table(rows)
    lines.append("")
    return lines


def _event_lines(d: dict, title: str = "peaks") -> list[str]:
    if "skipped" in d:
        return [f"{title}: skipped ({d['skipped']})", ""]
    provenance = d["provenance"]
    if provenance["method"] == "block-maxima":
        detail = f"block maxima, block size {provenance['block_size']}"
    else:
        detail = (
            f"pot, threshold {_fmt(provenance['threshold'])} ({provenance['comparison']}"
            f"{', zero-filled' if provenance['zero_filled'] else ''})"
        )
    lines = [f"{title} ({detail}, {d['n']} events)"]
    rows = [["index", "value"]]
    for index, value in d["observations"]:
        rows.append([_fmt(index), _fmt(value)])
    lines += _table(rows)
    lines.append("")
    return lines


def render_pipeline_text(d: dict) -> str:
    lines = [
        f"riskseries analysis report (schema {d['schema_version']})",
        f"input: {d['config']['input']} ({d['series']['n']} observations)",
        "",
    ]
    lines += _event_lines(d["pot"], title="pot extraction")
    lines += _summary_lines(d["summary"]["raw"], "summary (raw)")
    lines += _summary_lines(d["summary"]["detrended"], "summary (detrended)")
    lines += [
        "trend line",
        *_table([
            ["intercept", _fmt(d["trend"]["intercept"])],
            ["slope", _fmt(d["trend"]["slope"])],
            ["observations", _fmt(d["trend"]["n"])],
        ]),
        "",
    ]
    lines += _mk_lines(d["mann_kendall"])
    raw_corr = d["lag_correlation"]["raw"]
    detrended_corr = d["lag_correlation"]["detrended"]
    lines += [
        "lag-1 correlation",
        *_table([
            ["raw", _fmt(raw_corr) if not isinstance(raw_corr, dict)
             else f"skipped ({raw_corr['skipped']})"],
            ["detrended", _fmt(detrended_corr) if not isinstance(detrended_corr, dict)
             else f"skipped ({detrended_corr['skipped']})"],
        ]),
        "",
    ]
    for label in ("raw", "detrended"):
        block = d["ar"][label]
        if "skipped" in block:
            lines += [f"ar ({label}): skipped ({block['skipped']})", ""]
            continue
        for key in sorted(block, key=lambda k: int(k[1:])):
            lines += _regression_lines(block[key], f"ar ({label}) order {key[1:]}")
    lines += _trace_lines(d["order_selection"]["raw"], "order selection (raw)")
    lines += _trace_lines(d["order_selection"]["detrended"], "order selection (detrended)")
    lines += _residual_lines(d["residuals"])
    return "\n".join(lines).rstrip() + "\n"


def render(report_dict: dict, output_format: str, text_renderer) -> str:
    if output_format == "json":
        return json.dumps(report_dict, indent=2, allow_nan=True) + "\n"
    return text_renderer(report_dict)


# ------------------------------------------------------------- commands

class _Parser(argparse.ArgumentParser):
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


def build_parser() -> _Parser:
    parser = _Parser(prog="riskseries",
                     description="Extreme-event time-series and risk-curve analysis")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("summarize", help="descriptive statistics of a series")
    p.add_argument("input")
    _add_io_flags(p)

    p = sub.add_parser("peaks", help="extract extreme events")
    p.add_argument("input")
    p.add_argument("--threshold", type=_finite_float, help="POT threshold")
    p.add_argument("--comparison", choices=(peaks.STRICTLY_ABOVE, peaks.AT_OR_ABOVE),
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
    p.add_argument("--comparison", choices=(peaks.STRICTLY_ABOVE, peaks.AT_OR_ABOVE),
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
    out_dir.mkdir(parents=True, exist_ok=True)
    residual_points, probability_points = residuals.plot_data(report)
    for name, points in (
        ("residual_plot.csv", residual_points),
        ("probability_plot.csv", probability_points),
    ):
        lines = ["x,y"] + [f"{x!r},{y!r}" for x, y in points]
        (out_dir / name).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _cmd_summarize(args) -> str:
    series = parse_csv(args.input, _decimal(args))
    payload = summary_to_dict(summarize(series))

    def text(d):
        return "\n".join(_summary_lines(d, f"summary of {args.input}")).rstrip() + "\n"

    return render(payload, args.format, text)


def _cmd_peaks(args) -> str:
    series = parse_csv(args.input, _decimal(args))
    has_threshold = args.threshold is not None
    has_block = args.block_size is not None
    if has_threshold == has_block:
        raise UsageError("provide exactly one of --threshold or --block-size")
    if has_block:
        events = peaks.block_maxima(series, args.block_size)
    else:
        spec = peaks.ThresholdSpec(args.threshold, args.comparison)
        events = peaks.pot_zerofill(series, spec) if args.zero_fill \
            else peaks.pot_compact(series, spec)
    payload = event_series_to_dict(events)

    def text(d):
        return "\n".join(_event_lines(d)).rstrip() + "\n"

    return render(payload, args.format, text)


def _cmd_trend(args) -> str:
    series = parse_csv(args.input, _decimal(args))
    line = trend.fit_trend(series)
    payload = {
        "trend": {"intercept": line.intercept, "slope": line.slope, "n": line.source_n},
    }
    if args.mann_kendall:
        payload["mann_kendall"] = mk_to_dict(trend.mann_kendall(series, args.alpha))

    def text(d):
        lines = [
            "trend line",
            *_table([
                ["intercept", _fmt(d["trend"]["intercept"])],
                ["slope", _fmt(d["trend"]["slope"])],
                ["observations", _fmt(d["trend"]["n"])],
            ]),
            "",
        ]
        if "mann_kendall" in d:
            lines += _mk_lines(d["mann_kendall"])
        return "\n".join(lines).rstrip() + "\n"

    return render(payload, args.format, text)


def _prepare_ar_series(args) -> tuple[TimeSeries, str]:
    series = parse_csv(args.input, _decimal(args))
    if args.detrend:
        detrended = trend.detrend(series, trend.fit_trend(series))
        return detrended, autoreg.DETRENDED
    return series, autoreg.RAW


def _cmd_ar(args) -> str:
    source, label = _prepare_ar_series(args)
    if args.max_lag < 1:
        raise UsageError(f"max lag must be >= 1, got {args.max_lag!r}")
    models = [autoreg.fit_ar(source, p, fitted_on=label) for p in range(1, args.max_lag + 1)]
    payload = {
        "fitted_on": label,
        "ar": {f"p{model.p}": regression_to_dict(model) for model in models},
        "order_selection": trace_to_dict(autoreg.select_order(models, args.alpha)),
    }

    def text(d):
        lines = []
        for key in sorted(d["ar"], key=lambda k: int(k[1:])):
            lines += _regression_lines(d["ar"][key], f"ar ({d['fitted_on']}) order {key[1:]}")
        lines += _trace_lines(d["order_selection"], f"order selection ({d['fitted_on']})")
        return "\n".join(lines).rstrip() + "\n"

    return render(payload, args.format, text)


def _cmd_residuals(args) -> str:
    source, label = _prepare_ar_series(args)
    model = autoreg.fit_ar(source, args.lag, fitted_on=label)
    report = residuals.residual_analysis(model, source, args.outlier_threshold)
    if args.plot_data:
        _write_plot_csvs(args.plot_data, report)
    payload = {"model": {"p": model.p, "fitted_on": label}, **residuals_to_dict(report)}

    def text(d):
        title = f"residuals ({d['model']['fitted_on']} AR({d['model']['p']}))"
        return "\n".join(_residual_lines(d, title)).rstrip() + "\n"

    return render(payload, args.format, text)


def _cmd_gev_pdf(args) -> str:
    params = evt_risk.GevParams(mu=args.mu, sigma=args.sigma, xi=args.xi)
    xs = _finite_list(args.x, "evaluation points")
    payload = {
        "mu": args.mu, "sigma": args.sigma, "xi": args.xi,
        "points": [[x, evt_risk.gev_pdf(x, params)] for x in xs],
    }

    def text(d):
        rows = [["x", "density"]] + [[_fmt(x), _fmt(density)] for x, density in d["points"]]
        return "\n".join(_table(rows, indent="")).rstrip() + "\n"

    return render(payload, args.format, text)


def _cmd_risk_curve(args) -> str:
    hazard = parse_hazard_csv(args.hazard)
    vulnerability = parse_vulnerability_csv(args.vulnerability, hazard)
    losses = _parse_loss_grid(args.losses, args.loss_csv)
    curve = evt_risk.risk_curve(losses, hazard, vulnerability)
    payload = {
        "hazard_points": len(hazard),
        "losses": list(curve.losses),
        "frequencies": list(curve.frequencies),
    }

    def text(d):
        rows = [["loss", "exceedance frequency"]]
        rows += [[_fmt(x), _fmt(r)] for x, r in zip(d["losses"], d["frequencies"])]
        return "\n".join(_table(rows, indent="")).rstrip() + "\n"

    return render(payload, args.format, text)


def _cmd_analyze(args) -> str:
    threshold = None
    if args.threshold is not None:
        threshold = peaks.ThresholdSpec(args.threshold, args.comparison)
    config = AnalysisConfig(
        input_path=args.input,
        decimal=_decimal(args),
        threshold=threshold,
        max_lag=args.max_lag,
        alpha=args.alpha,
        detrend=not args.no_detrend,
        outlier_threshold=args.outlier_threshold,
        output_format=args.format,
        plot_data_dir=args.plot_data,
    )
    series = parse_csv(config.input_path, config.decimal)
    report = run_pipeline(series, config)
    if config.plot_data_dir and not isinstance(report.residuals_raw_ar1, str):
        _write_plot_csvs(config.plot_data_dir, report.residuals_raw_ar1)
    return render(pipeline_to_dict(report), config.output_format, render_pipeline_text)


_COMMANDS = {
    "summarize": _cmd_summarize,
    "peaks": _cmd_peaks,
    "trend": _cmd_trend,
    "ar": _cmd_ar,
    "residuals": _cmd_residuals,
    "gev-pdf": _cmd_gev_pdf,
    "risk-curve": _cmd_risk_curve,
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
    except NumericalError as exc:
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
