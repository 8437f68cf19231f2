"""A frozen copy of the per-row CSV readers, the reference for the column readers.

These are the readers of ``riskseries.cli`` as they were before the good
case was read as whole columns: each row is split, stripped and converted
on its own, and the first bad row raises. ``test_readers.py`` runs every
input of its corpus through both and requires the same result or the same
error. Do not edit this file to follow the CLI; it is the reference.

Two edits since follow changes of contract, not of reading: the
vulnerability reader still checks each row as a ``VulnerabilityPoint``
but returns the points as one ``VulnerabilityCurve``, the type the
library now takes, and a loss file with a header and no rows is a data
error, as it is for the other three readers.
"""
from __future__ import annotations

import math
from pathlib import Path

from riskseries.errors import DataError, UsageError
from riskseries.evt_risk import (
    HazardCurve,
    VulnerabilityCurve,
    VulnerabilityPoint,
    check_hazard_point,
)
from riskseries.series import TimeSeries

DECIMAL_POINT = "point"
DECIMAL_COMMA = "comma"


def _read_rows(path: str) -> list[tuple[int, str]]:
    """The non-blank lines of a file, each with its 1-based line number."""
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
        return TimeSeries(indices=months, values=values)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None


def parse_hazard_csv(path: str) -> HazardCurve:
    rows = _read_rows(path)
    if not rows or [c.strip().lower() for c in rows[0][1].split(",")] != ["s", "g"]:
        raise DataError(f"{path}: expected header 's,G'")
    points = []
    previous = (-math.inf, math.inf)
    for lineno, line in rows[1:]:
        cells = [c.strip() for c in line.split(",")]
        if len(cells) != 2:
            raise DataError(f"{path}: line {lineno}: expected 2 fields")
        point = _finite_row(path, lineno, cells, "hazard point")
        try:
            check_hazard_point(previous, point)
        except DataError as exc:
            raise DataError(f"{path}: line {lineno}: {exc}") from None
        points.append(point)
        previous = point
    if not points:
        raise DataError(f"{path}: no data rows")
    if len(points) < 2:
        raise DataError(f"{path}: need at least 2 hazard points, got {len(points)}")
    return HazardCurve(points=tuple(points))


def parse_vulnerability_csv(path: str, hazard: HazardCurve) -> VulnerabilityCurve:
    """Read one ``s,mean_loss,cov`` row per intensity of the hazard grid.

    Each row is checked as a ``VulnerabilityPoint``; the points are then
    returned as one curve, the type the CLI's reader returns.
    """
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
            points.append(VulnerabilityPoint(s=s, mean_loss=mean_loss, cov=cov))
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
    return VulnerabilityCurve.of(points)


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
    if not losses:
        raise DataError(f"{csv_path}: no data rows")
    return tuple(losses)
