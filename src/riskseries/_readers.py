"""Reading a ``month,value`` series CSV, and the CSV helpers every reader shares.

The hazard, vulnerability and loss-grid readers, in
``riskseries._risk_commands``, use the same helpers and the same rule:
a column pass for the good case, a per-row reader for the errors.
"""
from __future__ import annotations

import math
from itertools import repeat
from pathlib import Path

from .errors import DataError, UsageError
from .series import TimeSeries

DECIMAL_POINT = "point"
DECIMAL_COMMA = "comma"


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


def _split_row(line: str, decimal: str) -> list[str]:
    if decimal == DECIMAL_COMMA and ";" in line:
        return [cell.strip() for cell in line.split(";")]
    return [cell.strip() for cell in line.split(",")]


# Each reader takes the good case as whole columns through Python's own
# int and float, which strip the same whitespace str.strip does, or less:
# a column pass accepts only what the per-row reader accepts, with the
# same bits. On anything else (a bad cell, a wrong field count, a rejected
# value) it hands the file to its per-row reader, which alone words the
# error and numbers its line.

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
