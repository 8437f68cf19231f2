"""The risk commands, ``gev-pdf`` and ``risk-curve``, and the readers of their inputs.

``riskseries.cli`` imports this module only when one of these commands
runs, so no other command compiles it or loads ``evt_risk``.
"""
from __future__ import annotations

import math

from . import evt_risk
from ._readers import _read_table
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


def parse_hazard_csv(path: str) -> evt_risk.HazardCurve:
    """Read one ``s,G`` row per point of a hazard curve of at least 2 points."""
    def check_row(before, point):
        evt_risk.check_hazard_point(before[-1] if before else (-math.inf, math.inf), point)

    return _read_table(path, "s,G", "hazard point", check_row, evt_risk.HazardCurve)


def parse_vulnerability_csv(path: str, hazard: evt_risk.HazardCurve) -> evt_risk.VulnerabilityCurve:
    """Read one ``s,mean_loss,cov`` row per intensity of the hazard grid."""
    grid = hazard.s.tolist()

    def check_row(before, row):
        s, mean_loss, cov = row
        evt_risk.lognormal_params(mean_loss, cov)
        if len(before) == len(grid):
            raise DataError(f"row beyond the {len(grid)}-point hazard grid")
        if s != grid[len(before)]:
            raise DataError(
                f"vulnerability grid is misaligned: s={s} vs hazard s={grid[len(before)]}"
            )

    def build(s, mean_loss, cov):
        vulnerability = evt_risk.VulnerabilityCurve(s=s, mean_loss=mean_loss, cov=cov)
        evt_risk.check_grid(hazard, vulnerability.s)
        return vulnerability

    return _read_table(path, "s,mean_loss,cov", "vulnerability point", check_row, build)


def _parse_loss_grid(flag_value: str | None, csv_path: str | None) -> tuple[float, ...]:
    if (flag_value is None) == (csv_path is None):
        raise UsageError("provide exactly one of --losses or --loss-csv")
    if flag_value is not None:
        return _finite_list(flag_value, "loss grid")
    return _read_table(csv_path, "x", "loss grid", lambda before, row: evt_risk.check_loss(*row),
                       lambda x: tuple(map(evt_risk.check_loss, x)))


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
