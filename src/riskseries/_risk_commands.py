"""The risk commands, ``gev-pdf`` and ``risk-curve``, and the readers of their inputs.

``riskseries.cli`` imports this module only when one of these commands
runs, so no other command compiles it or loads ``evt_risk``.
"""
from __future__ import annotations

import math
from itertools import chain

from . import evt_risk
from ._readers import _columns, _finite_row, _numbered_rows, _read_lines
from ._report import ColumnTable, render
from .errors import DataError, UsageError


def _finite_list(text: str, what: str) -> tuple[float, ...]:
    """Comma-separated finite floats from a flag; a bad one is a usage error."""
    try:
        values = tuple(float(cell) for cell in text.split(","))
    except ValueError:
        raise UsageError(f"cannot parse {what} {text!r}") from None
    if not all(map(math.isfinite, values)):
        raise UsageError(f"{what} must be finite, got {text!r}")
    return values


def _header_is(line: str, expected: list[str]) -> bool:
    return [c.strip().lower() for c in line.split(",")] == expected


def parse_hazard_csv(path: str) -> evt_risk.HazardCurve:
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
) -> evt_risk.VulnerabilityCurve:
    """Read one ``s,mean_loss,cov`` row per intensity of the hazard grid."""
    lines, rows = _read_lines(path)
    if not rows or not _header_is(rows[0], ["s", "mean_loss", "cov"]):
        raise DataError(f"{path}: expected header 's,mean_loss,cov'")
    columns = _columns(rows[1:], 3)
    if columns:
        try:
            s, mean_loss, cov = (list(map(float, column)) for column in columns)
            if s == list(hazard.s) and all(map(math.isfinite, chain(mean_loss, cov))):
                return evt_risk.VulnerabilityCurve(s=s, mean_loss=mean_loss, cov=cov)
        except (ValueError, UsageError):
            pass
    return _vulnerability_rows(path, _numbered_rows(lines)[1:], hazard.s)


def _vulnerability_rows(
    path: str, rows: list[tuple[int, str]], grid: tuple[float, ...]
) -> evt_risk.VulnerabilityCurve:
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
    return evt_risk.VulnerabilityCurve.of(points)


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
        if losses and all(map(math.isfinite, losses)) and min(losses) >= 0.0:
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
    if not losses:
        raise DataError(f"{path}: no data rows")
    return tuple(losses)


def _cmd_gev_pdf(args) -> str:
    params = evt_risk.GevParams(mu=args.mu, sigma=args.sigma, xi=args.xi)
    xs = _finite_list(args.x, "evaluation points")
    payload = {
        "mu": args.mu, "sigma": args.sigma, "xi": args.xi,
        "points": ColumnTable(list(xs), [evt_risk.gev_pdf(x, params) for x in xs]),
    }
    return render(payload, args.format, "gev_pdf")


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
    return render(payload, args.format, "risk_curve")


COMMANDS = {"gev-pdf": _cmd_gev_pdf, "risk-curve": _cmd_risk_curve}
