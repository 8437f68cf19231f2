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
mode emits, so the two never disagree. ``evt_risk`` and ``_text`` are
imported only by the commands and formats that run them, which keeps a
cold ``analyze --format json`` from loading either.
"""
from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Sequence

from . import autoreg, peaks, residuals, trend
from ._record import Record
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


class AnalysisConfig(Record):
    input_path: str
    decimal: str = DECIMAL_POINT
    threshold: peaks.ThresholdSpec | None = None
    max_lag: int = 3
    alpha: float = 0.05
    detrend: bool = True
    outlier_threshold: float = 3.0

    def __post_init__(self):
        _check_alpha(self.alpha)
        _check_max_lag(self.max_lag)


def _check_alpha(alpha: float):
    if not 0.0 < alpha < 1.0:
        raise UsageError(f"alpha must be in (0, 1), got {alpha!r}")


def _check_max_lag(max_lag: int):
    if max_lag < 1:
        raise UsageError(f"max lag must be >= 1, got {max_lag!r}")


class PipelineReport(Record):
    """Every pipeline product, or the reason it was skipped (a string)."""

    config: AnalysisConfig
    series_n: int
    pot_events: peaks.EventSeries | str
    summary_raw: SummaryStats
    summary_detrended: SummaryStats | str
    trend_line: trend.TrendLine
    mk: trend.MKResult | str
    ar_raw: dict[int, autoreg.ARModel | str]  # keyed by order
    ar_detrended: dict[int, autoreg.ARModel | str] | str
    lag1_raw: float | str
    lag1_detrended: float | str
    order_raw: autoreg.OrderSelectionTrace | str
    order_detrended: autoreg.OrderSelectionTrace | str
    residuals_raw_ar1: residuals.ResidualReport | str


# ----------------------------------------------------------------- parsing

def _read_lines(path: str) -> tuple[list[str], list[str]]:
    """All lines of a UTF-8 file, and its non-blank ones; one leading BOM is dropped."""
    try:
        data = Path(path).read_bytes()
    except FileNotFoundError:
        raise DataError(f"input file not found: {path}") from None
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from None
    try:
        text = data.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise DataError(
            f"{path}: not UTF-8 text: byte 0x{data[exc.start]:02x} at offset {exc.start}"
        ) from None
    lines = text.splitlines()
    return lines, list(filter(str.strip, lines))


def _numbered_rows(lines: list[str]) -> list[tuple[int, str]]:
    """The non-blank lines, each with its 1-based line number, for the per-row readers."""
    return [(i, line) for i, line in enumerate(lines, start=1) if line.strip()]


def _columns(rows: list[str], width: int) -> list[list[str]] | None:
    """The comma-separated cells of ``rows`` as ``width`` columns.

    None unless every row has exactly ``width`` fields. The count is taken
    per row: a single total would let the rows ``5`` and ``6,7,8`` pass as
    two rows of two.
    """
    if set(map(str.count, rows, repeat(","))) != {width - 1}:
        return None
    cells = ",".join(rows).split(",")
    return [cells[j::width] for j in range(width)]


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


# The readers below take the good case as whole columns through Python's
# own int and float, which strip the same whitespace str.strip does, or
# less: a column pass accepts only what the per-row reader accepts, with
# the same bits. On anything else (a bad cell, a wrong field count, a
# rejected value) they hand the file to the per-row reader, which alone
# words the error and numbers its line.

def parse_csv(path: str, decimal: str = DECIMAL_POINT) -> TimeSeries:
    """Read a ``month,value`` CSV into a TimeSeries.

    With decimal="comma" the file may either use ';' as the column
    separator with ',' decimals (``79;195,2``) or plain commas, in which
    case a three-field row is read as month, integer part, fraction
    (``79,195,2``).
    """
    if decimal not in (DECIMAL_POINT, DECIMAL_COMMA):
        raise UsageError(f"decimal must be 'point' or 'comma', got {decimal!r}")
    lines, rows = _read_lines(path)
    if not rows:
        raise DataError(f"{path}: file is empty")
    if [c.lower() for c in _split_row(rows[0], decimal)][:2] != ["month", "value"]:
        header_no = _numbered_rows(lines)[0][0]
        raise DataError(f"{path}: line {header_no}: expected header 'month,value'")
    if len(rows) == 1:
        raise DataError(f"{path}: no data rows")
    columns = _columns(rows[1:], 2) if decimal == DECIMAL_POINT else None
    if columns:
        try:
            return TimeSeries(indices=list(map(int, columns[0])),
                              values=list(map(float, columns[1])))
        except (ValueError, DataError):
            pass
    return _csv_rows(path, _numbered_rows(lines)[1:], decimal)


def _csv_rows(path: str, rows: list[tuple[int, str]], decimal: str) -> TimeSeries:
    months, values = [], []
    for lineno, line in rows:
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
        return TimeSeries(indices=months, values=values)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None


def _header_is(line: str, expected: list[str]) -> bool:
    return [c.strip().lower() for c in line.split(",")] == expected


def parse_hazard_csv(path: str) -> evt_risk.HazardCurve:
    from . import evt_risk

    lines, rows = _read_lines(path)
    if not rows or not _header_is(rows[0], ["s", "g"]):
        raise DataError(f"{path}: expected header 's,G'")
    columns = _columns(rows[1:], 2)
    if columns and len(columns[0]) >= 2:
        try:
            # HazardCurve checks every point; finite, increasing s and positive,
            # non-increasing G are what the per-row reader asks of each row.
            return evt_risk.HazardCurve(
                points=tuple(zip(map(float, columns[0]), map(float, columns[1])))
            )
        except (ValueError, DataError):
            pass
    return _hazard_rows(path, _numbered_rows(lines)[1:])


def _hazard_rows(path: str, rows: list[tuple[int, str]]) -> evt_risk.HazardCurve:
    from . import evt_risk

    points = []
    previous = (-math.inf, math.inf)
    for lineno, line in rows:
        cells = [c.strip() for c in line.split(",")]
        if len(cells) != 2:
            raise DataError(f"{path}: line {lineno}: expected 2 fields")
        point = _finite_row(path, lineno, cells, "hazard point")
        try:
            evt_risk.check_hazard_point(previous, point)
        except DataError as exc:
            raise DataError(f"{path}: line {lineno}: {exc}") from None
        points.append(point)
        previous = point
    if not points:
        raise DataError(f"{path}: no data rows")
    if len(points) < 2:
        raise DataError(f"{path}: need at least 2 hazard points, got {len(points)}")
    return evt_risk.HazardCurve(points=tuple(points))


def parse_vulnerability_csv(
    path: str, hazard: evt_risk.HazardCurve
) -> tuple[evt_risk.VulnerabilityPoint, ...]:
    """Read one ``s,mean_loss,cov`` row per intensity of the hazard grid."""
    from . import evt_risk

    lines, rows = _read_lines(path)
    if not rows or not _header_is(rows[0], ["s", "mean_loss", "cov"]):
        raise DataError(f"{path}: expected header 's,mean_loss,cov'")
    columns = _columns(rows[1:], 3)
    if columns:
        try:
            s, mean_loss, cov = (list(map(float, column)) for column in columns)
            if s == list(hazard.s) and all(map(math.isfinite, chain(mean_loss, cov))):
                return tuple(
                    evt_risk.VulnerabilityPoint(s=s_i, mean_loss=mean_i, cov=cov_i)
                    for s_i, mean_i, cov_i in zip(s, mean_loss, cov)
                )
        except (ValueError, UsageError):
            pass
    return _vulnerability_rows(path, _numbered_rows(lines)[1:], hazard.s)


def _vulnerability_rows(
    path: str, rows: list[tuple[int, str]], grid: tuple[float, ...]
) -> tuple[evt_risk.VulnerabilityPoint, ...]:
    from . import evt_risk

    points = []
    for i, (lineno, line) in enumerate(rows):
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
    lines, rows = _read_lines(csv_path)
    if not rows or rows[0].strip().lower() != "x":
        raise DataError(f"{csv_path}: expected header 'x'")
    try:
        losses = tuple(map(float, rows[1:]))
        if all(map(math.isfinite, losses)) and min(losses, default=0.0) >= 0.0:
            return losses
    except ValueError:
        pass
    return _loss_rows(csv_path, _numbered_rows(lines)[1:])


def _loss_rows(path: str, rows: list[tuple[int, str]]) -> tuple[float, ...]:
    losses = []
    for lineno, line in rows:
        (x,) = _finite_row(path, lineno, [line.strip()], "loss grid")
        if x < 0.0:
            raise DataError(f"{path}: line {lineno}: loss must be non-negative, got {x!r}")
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

    def fit_all(source: TimeSeries, label: str) -> dict[int, autoreg.ARModel | str]:
        # Orders above max_order(n) cannot fit. Try those up to it (always
        # AR(1), whose reason the residual report names), then max_lag
        # alone: its length error is the one skip entry for every order
        # above the cap, so the report's size follows n, not the flag.
        top = min(config.max_lag, max(autoreg.max_order(len(source)), 1))
        orders = list(range(1, top + 1)) + ([config.max_lag] if config.max_lag > top else [])
        models: dict[int, autoreg.ARModel | str] = {}
        for p in orders:
            try:
                models[p] = autoreg.fit_ar(source, p, fitted_on=label)
            except (UsageError, NumericalError) as exc:
                models[p] = str(exc)
        return models

    ar_raw = fit_all(working, autoreg.RAW)
    ar_detrended: dict[int, autoreg.ARModel | str] | str
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

    def order(models: dict[int, autoreg.ARModel | str] | str):
        if isinstance(models, str):
            return models
        failed = [model for model in models.values() if isinstance(model, str)]
        return failed[-1] if failed else autoreg.select_order(list(models.values()), config.alpha)

    lag1_raw = lag1(working)
    lag1_detrended = lag1(detrended)
    order_raw = order(ar_raw)
    order_detrended = order(ar_detrended)

    first_raw = ar_raw[1]
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

def _record_to_dict(record: Record) -> dict:
    """A result record as a dict: its fields in declaration order, which
    is the JSON schema. A nested record becomes a dict, and a non-empty
    tuple of records a ``ColumnTable`` with one column per field, in
    declaration order; every other value is shared, not copied.

    The order comes from ``_fields``, not from the instance's ``__dict__``,
    which holds the fields in whatever order the constructor's keywords
    came and may hold derived attributes as well.
    """
    attributes = vars(record)
    fields = {name: attributes[name] for name in record._fields}
    for key, value in fields.items():
        if isinstance(value, Record):
            fields[key] = _record_to_dict(value)
        elif type(value) is tuple and value and isinstance(value[0], Record):
            fields[key] = ColumnTable(**{
                name: [getattr(item, name) for item in value] for name in value[0]._fields
            })
    return fields


def _section(value, convert=_record_to_dict):
    """A report section, or ``{"skipped": reason}`` where the stage was skipped."""
    return {"skipped": value} if isinstance(value, str) else convert(value)


def regression_to_dict(model: autoreg.ARModel) -> dict:
    return {"p": model.p, "fitted_on": model.fitted_on, **_record_to_dict(model.report)}


class ColumnTable:
    """Rows held as columns, in schema order, all of one length.

    Named columns (``ColumnTable(y=..., z=...)``) hold rows that are
    dicts, keys in column order; positional ones (``ColumnTable(xs, ys)``)
    hold rows that are lists. ``columns`` maps each name, or position, to
    its column. Iterating yields the rows, so ``list(table)`` builds the
    list the table stands for. The JSON writer formats it column by column
    and builds no row.
    """

    __slots__ = ("columns", "keys")

    def __init__(self, /, *positional, **named):
        if positional and named:
            raise ValueError("table columns must be all named or all positional")
        columns = named or dict(enumerate(positional))
        if len(set(map(len, columns.values()))) > 1:
            raise ValueError("table columns must all have the same length")
        self.columns = columns
        self.keys = tuple(named) if named else None

    def __len__(self) -> int:
        return len(next(iter(self.columns.values()), ()))

    def __iter__(self):
        rows = zip(*self.columns.values())
        if self.keys is None:
            return map(list, rows)
        keys = self.keys
        return (dict(zip(keys, row)) for row in rows)


def residuals_to_dict(report: residuals.ResidualReport) -> dict:
    return {
        "n": len(report.y),
        "scale": report.scale,
        "regression_std_error": report.regression_std_error,
        "outlier_threshold": report.outlier_threshold,
        "outliers": (report.outlier.nonzero()[0] + 1).tolist(),
        "rows": ColumnTable(
            observation_id=range(1, len(report.y) + 1),
            y=report.y.tolist(),
            y_predicted=report.y_predicted.tolist(),
            residual=report.residual.tolist(),
            standardized=report.standardized.tolist(),
            percentile=report.percentile.tolist(),
            outlier=report.outlier.tolist(),
        ),
    }


def event_series_to_dict(events: peaks.EventSeries) -> dict:
    return {
        "provenance": _record_to_dict(events.provenance),
        "n": len(events),
        "observations": ColumnTable(events.indices.tolist(), events.values.tolist()),
    }


def _ar_models_to_dict(models: dict[int, autoreg.ARModel | str]) -> dict:
    return {f"p{p}": _section(model, regression_to_dict) for p, model in models.items()}


def pipeline_to_dict(report: PipelineReport) -> dict:
    config = report.config
    return {
        "schema_version": SCHEMA_VERSION,
        "config": {
            "input": config.input_path,
            "decimal": config.decimal,
            "threshold": None if config.threshold is None else _record_to_dict(config.threshold),
            "max_lag": config.max_lag,
            "alpha": config.alpha,
            "detrend": config.detrend,
            "outlier_threshold": config.outlier_threshold,
        },
        "series": {"n": report.series_n},
        "pot": _section(report.pot_events, event_series_to_dict),
        "summary": {
            "raw": _record_to_dict(report.summary_raw),
            "detrended": _section(report.summary_detrended),
        },
        "trend": _record_to_dict(report.trend_line),
        "mann_kendall": _section(report.mk),
        "lag_correlation": {
            "raw": _section(report.lag1_raw, float),
            "detrended": _section(report.lag1_detrended, float),
        },
        "ar": {
            "raw": _ar_models_to_dict(report.ar_raw),
            "detrended": _section(report.ar_detrended, _ar_models_to_dict),
        },
        "order_selection": {
            "raw": _section(report.order_raw),
            "detrended": _section(report.order_detrended),
        },
        "residuals": _section(report.residuals_raw_ar1, residuals_to_dict),
    }


# ---------------------------------------------------------------- render

_FLOAT_SPECIAL = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _float_text(value: float) -> str:
    text = float.__repr__(value)
    return _FLOAT_SPECIAL.get(text, text)


# The JSON text of a scalar of exactly this type; subclasses take the
# isinstance chain in _write_json.
_SCALAR_TEXT = {
    str: encode_basestring_ascii,
    type(None): lambda _: "null",
    bool: lambda value: "true" if value else "false",
    int: int.__repr__,
    float: _float_text,
}


def _column_texts(column) -> list[str] | None:
    """The JSON text of each item, if all are scalars of one exact type; else None."""
    kinds = set(map(type, column))
    if len(kinds) != 1:
        return None
    kind = kinds.pop()
    if kind is float:
        texts = list(map(float.__repr__, column))
        if not all(map(math.isfinite, column)):
            texts = [_FLOAT_SPECIAL.get(text, text) for text in texts]
        return texts
    if kind is int:
        return list(map(int.__repr__, column))
    if kind is bool:
        return ["true" if item else "false" for item in column]
    if kind is str:
        return list(map(encode_basestring_ascii, column))
    return None


def _rows_text(columns, n: int, inner: str, keys: tuple[str, ...] | None) -> str | None:
    """``n`` rows given as columns, joined into the text between a list's brackets.

    The rows are records with ``keys`` or, if ``keys`` is None, flat lists. Each
    row is opening bracket, value (after its key prefix, for a record),
    comma, value, ..., closing bracket, taken from per-column lists in one
    join. None if a column fails ``_column_texts``.
    """
    if keys is None:
        prefixes = repeat("")
        opener, closer = "[", "]"
    else:
        prefixes = [encode_basestring_ascii(key) + ": " for key in keys]
        opener, closer = "{", "}"
    row_inner = inner + "  "
    fields = []
    separator = opener
    for prefix, column in zip(prefixes, columns):
        texts = _column_texts(column)
        if texts is None:
            return None
        fields += (repeat(separator + row_inner + prefix), texts)
        separator = ","
    closes = chain(repeat(inner + closer + "," + inner, n - 1), (inner + closer,))
    return "".join(chain.from_iterable(zip(*fields, closes)))


def _write_json(value, parts: list[str], newline: str):
    """Append the text of ``json.dumps(value, indent=2, allow_nan=True)`` to parts.

    Types are tested in the order of the standard library's pure-Python
    encoder, which ``json.dumps`` uses whenever ``indent`` is set, so the
    bytes are the same; writing them here skips that encoder's generator
    chain. ``newline`` is the line break plus the current indentation.

    A dict value whose exact type is ``str``, ``int``, ``float``, ``bool``
    or ``None`` is written in the dict's own loop, by the formatter that
    ``_SCALAR_TEXT`` holds for its type, which gives the text of the
    scalar branches below; any other value, a float or int subclass
    included, is written by a recursive call.

    A list is written in one pass when all its items are scalars of one
    exact type (``float``, ``int``, ``bool`` or ``str``; a bool is never
    taken for an int, nor a float subclass for a float), each mapped
    through the formatter the per-value path applies to that type; any
    other list is written item by item. A ``ColumnTable`` is written as
    the list of its rows, one such column at a time, and no row is built;
    if a column does not qualify, the table is written row by row.
    """
    if isinstance(value, str):
        parts.append(encode_basestring_ascii(value))
    elif value is None:
        parts.append("null")
    elif value is True:
        parts.append("true")
    elif value is False:
        parts.append("false")
    elif isinstance(value, int):
        parts.append(int.__repr__(value))
    elif isinstance(value, float):
        parts.append(_float_text(value))
    elif isinstance(value, (list, tuple, ColumnTable)):
        if not value:
            parts.append("[]")
            return
        inner = newline + "  "
        if isinstance(value, ColumnTable):
            text = _rows_text(value.columns.values(), len(value), inner, value.keys)
        else:
            texts = _column_texts(value)
            text = None if texts is None else ("," + inner).join(texts)
        if text is not None:
            parts += ("[" + inner, text, newline + "]")
            return
        separator = "[" + inner
        for item in value:
            parts.append(separator)
            _write_json(item, parts, inner)
            separator = "," + inner
        parts.append(newline + "]")
    elif isinstance(value, dict):
        if not value:
            parts.append("{}")
            return
        inner = newline + "  "
        separator = "{" + inner
        scalar_text = _SCALAR_TEXT.get
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            prefix = separator + encode_basestring_ascii(key) + ": "
            formatter = scalar_text(type(item))
            if formatter is None:
                parts.append(prefix)
                _write_json(item, parts, inner)
            else:
                parts.append(prefix + formatter(item))
            separator = "," + inner
        parts.append(newline + "}")
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def render(report_dict: dict, output_format: str, text_renderer: str, *text_args) -> str:
    """The report as JSON, or as text.

    Text comes from the function of ``riskseries._text`` named
    ``text_renderer``, called with the report and ``text_args``. That
    module is imported here, so only a text run loads it.
    """
    if output_format == "json":
        parts: list[str] = []
        _write_json(report_dict, parts, "\n")
        parts.append("\n")
        return "".join(parts)
    from . import _text

    return getattr(_text, text_renderer)(report_dict, *text_args)


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
    _check_alpha(args.alpha)
    source, label = _prepare_ar_series(args)
    _check_max_lag(args.max_lag)
    n = len(source)
    if args.max_lag > autoreg.max_order(n):
        # The first order too high for the data fails as its fit would, before any fit runs.
        autoreg.check_length(max(autoreg.max_order(n), 0) + 1, n)
    models = [autoreg.fit_ar(source, p, fitted_on=label) for p in range(1, args.max_lag + 1)]
    payload = {
        "fitted_on": label,
        "ar": {f"p{model.p}": regression_to_dict(model) for model in models},
        "order_selection": _record_to_dict(autoreg.select_order(models, args.alpha)),
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


def _cmd_gev_pdf(args) -> str:
    from . import evt_risk

    params = evt_risk.GevParams(mu=args.mu, sigma=args.sigma, xi=args.xi)
    xs = _finite_list(args.x, "evaluation points")
    payload = {
        "mu": args.mu, "sigma": args.sigma, "xi": args.xi,
        "points": ColumnTable(list(xs), [evt_risk.gev_pdf(x, params) for x in xs]),
    }
    return render(payload, args.format, "gev_pdf")


def _cmd_risk_curve(args) -> str:
    from . import evt_risk

    hazard = parse_hazard_csv(args.hazard)
    vulnerability = parse_vulnerability_csv(args.vulnerability, hazard)
    losses = _parse_loss_grid(args.losses, args.loss_csv)
    curve = evt_risk.risk_curve(losses, hazard, vulnerability)
    payload = {
        "hazard_points": len(hazard),
        "losses": list(curve.losses),
        "frequencies": list(curve.frequencies),
    }
    return render(payload, args.format, "risk_curve")


def _cmd_analyze(args) -> str:
    threshold = None
    if args.threshold is not None:
        threshold = peaks.ThresholdSpec(threshold=args.threshold, comparison=args.comparison)
    config = AnalysisConfig(
        input_path=args.input,
        decimal=_decimal(args),
        threshold=threshold,
        max_lag=args.max_lag,
        alpha=args.alpha,
        detrend=not args.no_detrend,
        outlier_threshold=args.outlier_threshold,
    )
    series = parse_csv(config.input_path, config.decimal)
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
