"""Extreme-value and risk-curve mathematics.

gev_pdf evaluates the generalized extreme value density in its standard
parameterization (Gumbel at shape 0, Frechet for positive shape, Weibull
for negative), returning 0 outside the support.

risk_curve computes the annual frequency R(x) with which loss exceeds x:

    R(x) = integral over s of (1 - P[X <= x | S = s]) * (-dG/ds) ds

where G(s) is the mean annual frequency of excitation exceeding
intensity s and the conditional loss given s is lognormal with median
theta(s) and log-sd beta(s). Between consecutive grid points the hazard
is interpolated exponentially (log-linear) and the conditional
non-exceedance probability linearly; each segment then integrates in
closed form, with the log-slope terms replaced by their series limits
when a segment is nearly flat.

risk_curve evaluates in blocks of losses, each a (losses x points)
matrix of at most _BLOCK_CELLS cells, so each conditional CDF is taken
once per (point, loss) and memory stays bounded on large grids. The
ratios, quotients and segment contributions are numpy arrays, but the
log and erfc of each cell go through math.log and math.erfc: numpy's
vectorised log does not always round as the C library's log does, and
numpy has no erfc. Cells reach them through a memoryview, so no block
is copied into a Python list. Every cell then sees the same IEEE
operations as the scalar conditional_nonexceedance, and each loss is
summed with math.fsum, which is exact in any order. So the frequencies
equal, bit for bit, the fsum over the segments of the closed-form
contribution that build_segments documents, with every p taken from
conditional_nonexceedance.
"""
from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from ._record import Record
from .dist import _SQRT2, normal_cdf
from .errors import DataError, UsageError

# Below this, exp(m*ds) terms lose all precision against 1; use series limits.
_FLAT_SEGMENT_EPS = 1e-8

# Cells (losses x hazard points) in one block of risk_curve.
_BLOCK_CELLS = 4096


class GevParams(Record):
    mu: float
    sigma: float
    xi: float

    def __post_init__(self):
        if not self.sigma > 0.0:
            raise UsageError(f"scale must be positive, got {self.sigma!r}")


def gev_pdf(x: float, params: GevParams) -> float:
    """Generalized extreme value density at x; 0 outside the support."""
    z = (x - params.mu) / params.sigma
    xi = params.xi
    if xi == 0.0:
        # Gumbel: exp(-z) * exp(-exp(-z)) / sigma, guarded against overflow.
        if z < -700.0:
            return 0.0
        return math.exp(-z - math.exp(-z)) / params.sigma
    u = 1.0 + xi * z
    if u <= 0.0:
        return 0.0
    log_u = math.log1p(xi * z)
    exponent = -log_u / xi
    if exponent > 700.0:
        return 0.0  # t -> inf, exp(-t) dominates
    t = math.exp(exponent)  # (1 + xi z)^(-1/xi)
    return t / u * math.exp(-t) / params.sigma


def lognormal_params(mean: float, cov: float) -> tuple[float, float]:
    """(median theta, log-sd beta) of a lognormal with given mean and CoV."""
    if not mean > 0.0:
        raise UsageError(f"mean loss must be positive, got {mean!r}")
    if cov < 0.0:
        raise UsageError(f"coefficient of variation must be >= 0, got {cov!r}")
    beta = math.sqrt(math.log1p(cov * cov))
    if beta == math.inf:
        raise UsageError(f"lognormal log-sd overflows for coefficient of variation {cov!r}")
    theta = mean / math.sqrt(1.0 + cov * cov)
    if theta == 0.0:
        raise UsageError(
            f"lognormal median underflows to 0 for mean loss {mean!r} "
            f"and coefficient of variation {cov!r}"
        )
    return theta, beta


class VulnerabilityPoint(Record):
    """Conditional loss distribution at excitation intensity s.

    ``theta`` and ``beta``, the lognormal's median and log-sd, are derived
    attributes set from the fields; they are not fields themselves.
    """

    s: float
    mean_loss: float
    cov: float

    def __post_init__(self):
        theta, beta = lognormal_params(self.mean_loss, self.cov)
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "beta", beta)


def conditional_nonexceedance(x: float, point: VulnerabilityPoint) -> float:
    """P[X <= x | S = s] for the lognormal vulnerability at that point."""
    if x < 0.0:
        raise UsageError(f"loss must be non-negative, got {x!r}")
    if x == 0.0:
        return 0.0
    if point.beta == 0.0:
        return 1.0 if x >= point.theta else 0.0  # deterministic loss
    ratio = x / point.theta
    if ratio == 0.0:
        return 0.0  # x / theta underflowed; P -> 0 as x -> 0
    return normal_cdf(math.log(ratio) / point.beta)


def check_hazard_point(previous: tuple[float, float], point: tuple[float, float]) -> None:
    """Raise DataError unless ``point`` may follow ``previous`` on a hazard curve.

    The first point follows ``(-inf, inf)``.
    """
    s, g = point
    if not (math.isfinite(s) and math.isfinite(g)):
        raise DataError("hazard points must be finite")
    if s <= previous[0]:
        raise DataError(f"hazard intensities must be strictly increasing at s={s}")
    if g <= 0.0:
        raise DataError(f"hazard frequencies must be positive, got {g} at s={s}")
    if g > previous[1]:
        raise DataError(f"hazard frequencies must be non-increasing at s={s}")


class HazardCurve(Record):
    """Intensity grid with mean annual exceedance frequencies."""

    points: tuple[tuple[float, float], ...]  # (s, G) pairs

    def __post_init__(self):
        points = tuple((float(s), float(g)) for s, g in self.points)
        object.__setattr__(self, "points", points)
        previous = (-math.inf, math.inf)
        for point in points:
            check_hazard_point(previous, point)
            previous = point

    @property
    def s(self) -> tuple[float, ...]:
        return tuple(p[0] for p in self.points)

    @property
    def g(self) -> tuple[float, ...]:
        return tuple(p[1] for p in self.points)

    def __len__(self) -> int:
        return len(self.points)


def build_segments(
    hazard: HazardCurve, vulnerability: Sequence[VulnerabilityPoint]
) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form quadrature weights ``(a, b)``, one entry per hazard segment.

    With t = m * delta_s = ln(G_i / G_{i-1}), exponential hazard and a
    linear non-exceedance probability in s give segment i the contribution

        (1 - p_{i-1}(x)) * a - (p_i(x) - p_{i-1}(x)) * b

    where a = G_{i-1} - G_i and b = G_{i-1} * ((e^t - 1)/t - e^t).
    """
    if len(hazard) < 2:
        raise UsageError(f"need at least 2 hazard points, got {len(hazard)}")
    if len(vulnerability) != len(hazard):
        raise UsageError(
            f"vulnerability has {len(vulnerability)} points, hazard has {len(hazard)}"
        )
    for point, s in zip(vulnerability, hazard.s):
        if point.s != s:
            raise UsageError(
                f"vulnerability grid is misaligned: s={point.s} vs hazard s={s}"
            )
    g = hazard.g
    a, b = [], []
    for g_prev, g_cur in zip(g, g[1:]):
        ratio = g_cur / g_prev
        # = m * delta_s; a ratio that underflows to 0 is a difference of logs
        t = math.log(ratio) if ratio > 0.0 else math.log(g_cur) - math.log(g_prev)
        a.append(g_prev - g_cur)
        if abs(t) < _FLAT_SEGMENT_EPS:
            # (e^t - 1)/t - e^t = -t/2 - t^2/3 - O(t^3)
            b.append(g_prev * (-t / 2.0 - t * t / 3.0))
        else:
            b.append(g_prev * (math.expm1(t) / t - math.exp(t)))
    return np.array(a), np.array(b)


def _cellwise(fn, cells: np.ndarray) -> np.ndarray:
    """``fn`` of every cell of a C-contiguous float array, one Python float at a time."""
    return np.fromiter(map(fn, memoryview(cells.ravel())), float, cells.size).reshape(cells.shape)


class RiskCurve(Record):
    losses: tuple[float, ...]
    frequencies: tuple[float, ...]  # annual frequency of exceeding each loss


def risk_curve(
    losses: Sequence[float],
    hazard: HazardCurve,
    vulnerability: Sequence[VulnerabilityPoint],
) -> RiskCurve:
    """Annual loss-exceedance frequencies over a loss grid.

    Contributions outside [s_1, s_n] are truncated, so a loss of 0 maps
    to the total in-range frequency G_1 - G_n.
    """
    a, b = build_segments(hazard, vulnerability)
    loss_grid = tuple(float(x) for x in losses)
    for x in loss_grid:
        if x < 0.0:
            raise UsageError(f"loss must be non-negative, got {x!r}")
    theta = np.array([point.theta for point in vulnerability])
    beta = np.array([point.beta for point in vulnerability])
    step = beta == 0.0
    beta[step] = 1.0  # those columns are replaced by the step below
    x_all = np.array(loss_grid, dtype=float)
    rows = max(1, _BLOCK_CELLS // len(theta))
    frequencies = []
    for start in range(0, len(loss_grid), rows):
        x = x_all[start:start + rows, None]
        with np.errstate(over="ignore"):
            q = x / theta
        zero = q == 0.0  # x == 0, or x / theta underflowed
        q[zero] = 1.0  # keeps math.log in its domain; these cells are set to 0 below
        p = 0.5 * _cellwise(math.erfc, -(_cellwise(math.log, q) / beta) / _SQRT2)
        p[:, step] = x >= theta[step]
        p[zero] = 0.0
        c = (1.0 - p[:, :-1]) * a - (p[:, 1:] - p[:, :-1]) * b
        frequencies.extend(max(math.fsum(memoryview(row)), 0.0) for row in c)
    return RiskCurve(losses=loss_grid, frequencies=tuple(frequencies))
