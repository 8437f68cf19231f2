"""Independent numpy checks of the program's outputs.

Nothing here calls into ``riskseries``. Least squares goes through
``numpy.linalg.lstsq`` (an SVD solver, where the program uses QR),
Mann-Kendall S through a chunked sign sum over all pairs, and the risk
curve through a fine trapezoid over the same interpolants the closed
form integrates exactly.
"""
from __future__ import annotations

import math

import numpy as np

COEF_REL = 1e-9
RISK_REL = 5e-3
RISK_ABS = 1e-9
GOLDEN_REL = 5e-3

_trapezoid = getattr(np, "trapezoid", None) or np.trapz  # numpy < 2 has only trapz

# Raw AR(1) on the 31-event case study, as published (tests pin rel 5e-3).
CASE_STUDY_AR1 = {
    "intercept": 267.592408,
    "slope": 0.41949996,
    "r_squared": 0.10760973,
    "std_error_regression": 262.491897,
    "f_stat": 3.376406518,
    "significance_f": 0.07677,
    "ci_lower_95": -0.04815,
    "ci_upper_95": 0.8871498,
}


class CheckFailed(Exception):
    """An output disagrees with its oracle."""


def _close(what: str, value: float, expected: float, rel: float, scale: float = 0.0):
    # ``scale`` floors the relative tolerance for values whose true size is
    # near zero, which no solver pins to relative precision.
    if not abs(value - expected) <= rel * max(abs(expected), scale):
        raise CheckFailed(f"{what}: got {value!r}, expected {expected!r} (rel {rel})")


def lstsq_coefficients(y: np.ndarray, columns: list[np.ndarray]):
    """Coefficients, and for each the data scale ||y|| / ||x_j|| it is judged at.

    A coefficient near zero (the intercept of a detrended series) is
    compared at 1e-9 of that scale instead of 1e-9 of itself.
    """
    design = np.column_stack([np.ones(len(y))] + columns)
    coef = np.linalg.lstsq(design, y, rcond=None)[0]
    return coef, np.linalg.norm(y) / np.linalg.norm(design, axis=0)


def ar_coefficients(values: np.ndarray, p: int):
    n = len(values)
    return lstsq_coefficients(values[p:], [values[p - i:n - i] for i in range(1, p + 1)])


def mann_kendall_s(values: np.ndarray, chunk: int = 64) -> int:
    """S = sum over i < j of sign(x_j - x_i), a block of rows at a time."""
    n = len(values)
    total = 0
    for lo in range(0, n - 1, chunk):
        hi = min(lo + chunk, n - 1)
        rows = values[lo:hi, None]
        signs = np.sign(values[None, lo + 1:] - rows)
        # Row i keeps only columns j > i.
        keep = np.arange(lo + 1, n)[None, :] > np.arange(lo, hi)[:, None]
        total += int(np.sum(signs, where=keep, dtype=np.int64))
    return total


def mann_kendall_var(values: np.ndarray) -> float:
    n = len(values)
    _, ties = np.unique(values, return_counts=True)
    var = n * (n - 1) * (2 * n + 5)
    for t in ties.tolist():
        var -= t * (t - 1) * (2 * t + 5)
    return var / 18.0


class AnalyzeOracle:
    """Reference numbers for one ``analyze`` input, computed once."""

    def __init__(self, values: np.ndarray, max_lag: int = 3):
        self.values = np.asarray(values, dtype=float)
        n = len(self.values)
        steps = np.arange(1, n + 1, dtype=float)
        self.trend = lstsq_coefficients(self.values, [steps])
        intercept, slope = self.trend[0]
        detrended = self.values - (intercept + slope * steps)
        self.ar = {
            "raw": {p: ar_coefficients(self.values, p) for p in range(1, max_lag + 1)},
            "detrended": {p: ar_coefficients(detrended, p) for p in range(1, max_lag + 1)},
        }
        self.mk_s = mann_kendall_s(self.values)
        self.mk_var = mann_kendall_var(self.values)

    def check(self, payload: dict):
        trend = payload["trend"]
        _compare("trend", [trend["intercept"], trend["slope"]], self.trend)
        for fitted_on, fits in self.ar.items():
            for p, expected in fits.items():
                block = payload["ar"][fitted_on][f"p{p}"]
                if "coefficients" not in block:
                    raise CheckFailed(f"ar.{fitted_on}.p{p} missing: {block}")
                got = [c["estimate"] for c in block["coefficients"]]
                _compare(f"ar.{fitted_on}.p{p}", got, expected)
        mk = payload["mann_kendall"]
        if mk.get("S") != self.mk_s:
            raise CheckFailed(f"mann_kendall.S: got {mk.get('S')}, expected {self.mk_s}")
        _close("mann_kendall.var_S", mk["var_S"], self.mk_var, 1e-12)


def _compare(what: str, got: list, expected):
    coef, scale = expected
    if len(got) != len(coef):
        raise CheckFailed(f"{what}: {len(got)} coefficients, expected {len(coef)}")
    for j, (value, reference, floor) in enumerate(zip(got, coef.tolist(), scale.tolist())):
        _close(f"{what}[{j}]", value, reference, COEF_REL, floor)


def check_case_study_golden(payload: dict):
    """Raw AR(1) of the 31-event case study against its published values."""
    fit = payload["ar"]["raw"]["p1"]
    intercept, slope = fit["coefficients"]
    got = {
        "intercept": intercept["estimate"],
        "slope": slope["estimate"],
        "r_squared": fit["r_squared"],
        "std_error_regression": fit["std_error_regression"],
        "f_stat": fit["anova"]["f_stat"],
        "significance_f": fit["anova"]["significance_f"],
        "ci_lower_95": slope["ci_lower_95"],
        "ci_upper_95": slope["ci_upper_95"],
    }
    for key, expected in CASE_STUDY_AR1.items():
        _close(f"case-study AR(1) {key}", got[key], expected, GOLDEN_REL)


def _lognormal_cdf(x: float, mean: np.ndarray, cov: np.ndarray) -> np.ndarray:
    beta = np.sqrt(np.log1p(cov * cov))
    theta = mean / np.sqrt(1.0 + cov * cov)
    if x <= 0.0:
        return np.zeros_like(mean)
    out = np.where(x >= theta, 1.0, 0.0)
    spread = beta > 0.0
    z = np.log(x / theta[spread]) / beta[spread]
    out[spread] = [0.5 * math.erfc(-v / math.sqrt(2.0)) for v in z]
    return out


def risk_trapezoid(
    x: float, s: np.ndarray, g: np.ndarray, mean: np.ndarray, cov: np.ndarray,
    per_segment: int = 64,
) -> float:
    """Fine trapezoid of (1 - P[X <= x | s]) * (-dG/ds) over [s_1, s_n].

    G is exponential and P linear in s between grid points, as in the
    closed form the program integrates.
    """
    p_knots = _lognormal_cdf(x, mean, cov)
    frac = np.linspace(0.0, 1.0, per_segment + 1)[None, :]
    ds = np.diff(s)[:, None]
    m = np.log(g[1:] / g[:-1])[:, None] / ds
    grid = s[:-1, None] + frac * ds
    p_lin = p_knots[:-1, None] + (p_knots[1:] - p_knots[:-1])[:, None] * frac
    neg_dg = -m * g[:-1, None] * np.exp(m * frac * ds)
    integrand = (1.0 - p_lin) * neg_dg
    return float(np.sum(_trapezoid(integrand, grid, axis=1)))


def check_risk(frequencies: list, losses: np.ndarray, sample: np.ndarray, reference: np.ndarray):
    if len(frequencies) != len(losses):
        raise CheckFailed(f"risk curve has {len(frequencies)} values for {len(losses)} losses")
    freq = np.asarray(frequencies, dtype=float)
    if not np.all(np.isfinite(freq)) or np.any(freq < 0.0):
        raise CheckFailed("risk curve has a negative or non-finite frequency")
    if np.any(np.diff(freq) > 1e-12):
        raise CheckFailed("risk curve increases with loss")
    for index, expected in zip(sample.tolist(), reference.tolist()):
        value = freq[index]
        if not abs(value - expected) <= max(RISK_REL * abs(expected), RISK_ABS):
            raise CheckFailed(
                f"risk frequency at loss {losses[index]!r}: got {value!r}, "
                f"trapezoid {expected!r} (rel {RISK_REL})"
            )
