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

Summed over the segments, those contributions regroup by grid point:

    R(x) = sum over j of d_j * q_j(x)

where q_j = 1 - p_j = P[X > x | S = s_j] is the conditional exceedance
probability and d_j a weight that build_segments' (a, b) fold into. Every
d_j is >= 0 and every q_j lies in [0, 1], so no term cancels another.
q_j is taken directly as erfc(z_j / sqrt 2) / 2, z_j = log(x / theta_j) /
beta_j, never as 1 - p from a double p near 1, so far-tail frequencies keep
their relative accuracy. Each q_j falls as x grows, so R never rises
with the loss.

Each cell's log(x / theta) is taken from the parts of x and theta that
frexp splits off, x = m_x * 2^e_x and theta = m_t * 2^e_t with mantissas
in [0.5, 1):

    log(x / theta) = k * LN2_HI + ((log m_x - log m_t) + k * LN2_LO)

with k = e_x - e_t and fdlibm's split of ln 2 into LN2_HI, whose low 20
bits are zero so k * LN2_HI is exact, and LN2_LO. math.log is called once
per loss mantissa and once per median mantissa, not once per cell.
Scaling the losses and the mean losses by a power of two changes neither
the mantissas nor k, so the frequencies are exactly scale-equivariant.

The vulnerability is one VulnerabilityCurve: read-only float64 columns
s, mean_loss and cov, checked as columns, with the lognormal's theta and
beta derived once per curve. build_segments and risk_curve read those
columns; a sequence of VulnerabilityPoints, the one-point form, is
turned into a curve once, on entry.

risk_curve evaluates in blocks of losses, each a (losses x points)
matrix of at most _BLOCK_CELLS cells, so each q is taken once per
(point, loss) and memory stays bounded on large grids. The exponent
differences, log ratios and quotients are numpy arrays, but each cell's
erfc goes through math.erfc, which numpy lacks; cells reach it through a
memoryview, so no block is copied into a Python list. The mantissa logs
go through math.log too, since numpy's vectorised log does not always
round as the C library's log does. A loss of 0 takes the mantissa log
-inf, so its cells get z = -inf and q = erfc(-inf) / 2 = 1. A loss whose
ratio to theta underflows needs no branch either: its log ratio is below
-745 and every accepted beta is below 26.65, so z / sqrt 2 < -19.7,
where erfc is exactly 2 and q again 1. Every cell then equals, bit for
bit, the scalar conditional_exceedance. Each loss's frequency is the row sum
(q * d).sum(axis=1): numpy's pairwise sum in a fixed order along the
row, which depends neither on the block a row falls in nor on a BLAS
build, its CPU kernel or its thread count. It is not an exactly rounded
sum, so frequencies may differ from a sum in another order in the last
digits.
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

# fdlibm's split of ln 2: _LN2_HI has 33 significant bits, so k * _LN2_HI
# is exact for every exponent difference k of two doubles (|k| < 2^12).
_LN2_HI = float.fromhex("0x1.62e42fee00000p-1")
_LN2_LO = float.fromhex("0x1.a39ef35793c76p-33")


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


def _lognormal_median(mean, cov, sqrt):
    """theta = mean / sqrt(1 + cov^2), of floats with math.sqrt or float64 columns with np.sqrt.

    Each step is one correctly rounded IEEE operation, so both give the same bits.
    """
    return mean / sqrt(1.0 + cov * cov)


def _lognormal_log_sd(cov: float) -> float:
    """beta = sqrt(log1p(cov^2)) of one CoV, through the C library's log1p.

    numpy's log1p does not always round as the C library's does, so a
    curve takes this per point too.
    """
    return math.sqrt(math.log1p(cov * cov))


def lognormal_params(mean: float, cov: float) -> tuple[float, float]:
    """(median theta, log-sd beta) of a lognormal with given mean and CoV."""
    if not mean > 0.0:
        raise UsageError(f"mean loss must be positive, got {mean!r}")
    if not cov >= 0.0:
        raise UsageError(f"coefficient of variation must be >= 0, got {cov!r}")
    beta = _lognormal_log_sd(cov)
    if beta == math.inf:
        raise UsageError(f"lognormal log-sd overflows for coefficient of variation {cov!r}")
    theta = _lognormal_median(mean, cov, math.sqrt)
    if theta == 0.0:
        raise UsageError(
            f"lognormal median underflows to 0 for mean loss {mean!r} "
            f"and coefficient of variation {cov!r}"
        )
    if mean == math.inf:  # checked last, so each earlier rejection keeps its message
        raise UsageError(f"mean loss must be finite, got {mean!r}")
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


class VulnerabilityCurve(Record, eq=False):
    """Conditional loss distributions over an intensity grid, as columns.

    ``s``, ``mean_loss`` and ``cov`` are read-only float64 columns of one
    length, copied on construction. ``theta`` and ``beta`` are derived
    columns, not fields: at every point they hold the bits lognormal_params
    gives, and a rejected point raises its UsageError, the first one in
    grid order. Iterating a curve gives its VulnerabilityPoints.
    """

    s: np.ndarray
    mean_loss: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        s, mean, cov = (np.array(c, dtype=float) for c in (self.s, self.mean_loss, self.cov))
        if not (s.ndim == 1 and s.shape == mean.shape == cov.shape):
            raise UsageError(
                f"vulnerability columns must be one-dimensional and of one length, "
                f"got shapes {s.shape}, {mean.shape} and {cov.shape}"
            )
        # cov^2 = inf gives beta = inf and theta = 0 (or nan), both rejected below.
        with np.errstate(over="ignore", invalid="ignore"):
            theta = _lognormal_median(mean, cov, np.sqrt)
        beta = np.fromiter(map(_lognormal_log_sd, cov.tolist()), float, len(cov))
        accepted = ((mean > 0.0) & (cov >= 0.0) & (beta != math.inf) & (theta != 0.0)
                    & (mean != math.inf))
        if not accepted.all():
            first = int(np.argmin(accepted))
            lognormal_params(mean[first].item(), cov[first].item())  # raises its error
        for name, column in zip(("s", "mean_loss", "cov", "theta", "beta"),
                                (s, mean, cov, theta, beta)):
            column.flags.writeable = False
            object.__setattr__(self, name, column)

    @classmethod
    def of(cls, vulnerability) -> "VulnerabilityCurve":
        """A curve as it is, or a sequence of VulnerabilityPoints as a curve."""
        if isinstance(vulnerability, cls):
            return vulnerability
        return cls(s=[p.s for p in vulnerability], mean_loss=[p.mean_loss for p in vulnerability],
                   cov=[p.cov for p in vulnerability])

    def __len__(self) -> int:
        return len(self.s)

    def __iter__(self):
        return map(VulnerabilityPoint, self.s.tolist(), self.mean_loss.tolist(), self.cov.tolist())


def conditional_nonexceedance(x: float, point: VulnerabilityPoint) -> float:
    """P[X <= x | S = s] for the lognormal vulnerability at that point.

    This is normal_cdf(log(x / theta) / beta), with the log taken from the
    frexp parts of x and theta as the module docstring describes. A loss
    of 0, or one whose ratio to theta underflows to 0, gives 0; at
    beta = 0 the loss is deterministic and P steps from 0 to 1 at theta.
    """
    return normal_cdf(_standard_score(x, point))


def conditional_exceedance(x: float, point: VulnerabilityPoint) -> float:
    """P[X > x | S = s], taken directly as erfc(z / sqrt 2) / 2.

    z is the standard score of conditional_nonexceedance, so this is
    1 - conditional_nonexceedance without the cancellation where that is
    near 1: a loss of 0, or one whose ratio to theta underflows to 0,
    gives 1, and at beta = 0 it steps from 1 to 0 at theta. Every cell of
    risk_curve equals this, bit for bit.
    """
    return 0.5 * math.erfc(_standard_score(x, point) / _SQRT2)


def _standard_score(x: float, point: VulnerabilityPoint) -> float:
    """z = log(x / theta) / beta; -inf where X > x is certain, +inf where X <= x is."""
    if not x >= 0.0:
        raise UsageError(f"loss must be non-negative, got {x!r}")
    if x == 0.0:
        return -math.inf
    if point.beta == 0.0:
        return math.inf if x >= point.theta else -math.inf  # deterministic loss
    if x / point.theta == 0.0:
        return -math.inf  # x / theta underflowed; P -> 0 as x -> 0
    m_x, e_x = math.frexp(x)
    m_t, e_t = math.frexp(point.theta)
    return _log_ratio(e_x - e_t, math.log(m_x), math.log(m_t)) / point.beta


def _log_ratio(k, log_m_x, log_m_t):
    """log(x / theta) from the exponent difference k and the mantissa logs.

    Floats or numpy arrays; risk_curve and the scalar conditional
    probabilities all take it from here, so their cells round alike.
    """
    return k * _LN2_HI + ((log_m_x - log_m_t) + k * _LN2_LO)


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
    """Intensity grid with mean annual exceedance frequencies.

    ``s`` and ``g``, the tuples of the points' intensities and
    frequencies, are derived attributes; they are not fields themselves.
    """

    points: tuple[tuple[float, float], ...]  # (s, G) pairs

    def __post_init__(self):
        points = tuple((float(s), float(g)) for s, g in self.points)
        object.__setattr__(self, "points", points)
        previous = (-math.inf, math.inf)
        for point in points:
            check_hazard_point(previous, point)
            previous = point
        s, g = tuple(zip(*points)) or ((), ())
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "g", g)

    def __len__(self) -> int:
        return len(self.points)


def build_segments(
    hazard: HazardCurve, vulnerability: VulnerabilityCurve | Sequence[VulnerabilityPoint]
) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form quadrature weights ``(a, b)``, one entry per hazard segment.

    With t = m * delta_s = ln(G_i / G_{i-1}), exponential hazard and a
    linear non-exceedance probability in s give segment i the contribution

        (1 - p_{i-1}(x)) * a - (p_i(x) - p_{i-1}(x)) * b

    where a = G_{i-1} - G_i and b = G_{i-1} * ((e^t - 1)/t - e^t).
    Both are >= 0, and a >= b. risk_curve regroups the segments by grid
    point, writing 1 - p as q: point j (from 0) takes the weight

        d_j = (a_{j+1} - b_{j+1}) + b_j

    with segment j running from point j-1 to point j, so the first point
    takes a_1 - b_1 and the last b_{n-1}, and R(x) = sum of d_j * q_j(x).

    ``vulnerability``, a VulnerabilityCurve or a sequence of
    VulnerabilityPoints, must lie on the hazard's grid; only its ``s``
    column is read here, to check that.
    """
    vulnerability = VulnerabilityCurve.of(vulnerability)
    if len(hazard) < 2:
        raise UsageError(f"need at least 2 hazard points, got {len(hazard)}")
    if len(vulnerability) != len(hazard):
        raise UsageError(
            f"vulnerability has {len(vulnerability)} points, hazard has {len(hazard)}"
        )
    if not np.array_equal(vulnerability.s, hazard.s):
        i = int(np.argmax(vulnerability.s != hazard.s))
        raise UsageError(f"vulnerability grid is misaligned: "
                         f"s={vulnerability.s[i].item()} vs hazard s={hazard.s[i]}")
    g = hazard.g
    a, b = [], []
    for g_prev, g_cur in zip(g, g[1:]):
        ratio = g_cur / g_prev
        # = m * delta_s; a ratio that underflows to 0 is a difference of logs
        t = math.log(ratio) if ratio > 0.0 else math.log(g_cur) - math.log(g_prev)
        a.append(g_prev - g_cur)
        if abs(t) < _FLAT_SEGMENT_EPS:
            # (e^t - 1)/t - e^t = -t/2 - t^2/3 - O(t^3); adding 0.0 turns the
            # -0.0 of an exactly flat segment (t = 0) into 0.0 and changes no other b.
            b.append(g_prev * (-t / 2.0 - t * t / 3.0) + 0.0)
        else:
            b.append(g_prev * (math.expm1(t) / t - math.exp(t)))
    return np.array(a), np.array(b)


def _cellwise(fn, cells: np.ndarray) -> np.ndarray:
    """``fn`` of every cell of a C-contiguous float array, one Python float at a time."""
    return np.fromiter(map(fn, memoryview(cells.ravel())), float, cells.size).reshape(cells.shape)


def _frexp_logs(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """frexp exponents of non-negative values and math.log of their mantissas.

    A 0 takes the log -inf. math.log is still called once per value, on
    the mantissa 1 in place of a 0's, which keeps it in its domain.
    """
    m, e = np.frexp(values)
    zero = values == 0.0
    m[zero] = 1.0
    logs = _cellwise(math.log, m)
    logs[zero] = -math.inf
    return e, logs


def _exceedance_block(x, e_x, log_m_x, theta, e_t, log_m_t, beta, step) -> np.ndarray:
    """q = P[X > x | S = s] for a block of losses (rows) at every point (columns).

    ``x``, ``e_x`` and ``log_m_x`` are (rows, 1) columns of the losses and
    their frexp parts; ``theta``, ``e_t``, ``log_m_t`` and ``beta`` are one
    entry per point, with beta set to 1 in the step columns (beta = 0),
    whose indices ``step`` holds. Each cell equals conditional_exceedance;
    a loss of 0 or one whose ratio to theta underflows reaches q = 1
    through erfc, as the module docstring shows.
    """
    log_ratio = _log_ratio(e_x - e_t, log_m_x, log_m_t)
    q = 0.5 * _cellwise(math.erfc, (log_ratio / beta) / _SQRT2)
    if step.size:
        q[:, step] = x < theta[step]
    return q


class RiskCurve(Record):
    losses: tuple[float, ...]
    frequencies: tuple[float, ...]  # annual frequency of exceeding each loss


def risk_curve(
    losses: Sequence[float],
    hazard: HazardCurve,
    vulnerability: VulnerabilityCurve | Sequence[VulnerabilityPoint],
) -> RiskCurve:
    """Annual loss-exceedance frequencies over a loss grid.

    Contributions outside [s_1, s_n] are truncated, so a loss of 0 maps
    to the total in-range frequency G_1 - G_n.
    """
    vulnerability = VulnerabilityCurve.of(vulnerability)
    a, b = build_segments(hazard, vulnerability)
    loss_grid = tuple(float(x) for x in losses)
    for x in loss_grid:
        if not x >= 0.0:
            raise UsageError(f"loss must be non-negative, got {x!r}")
    d = np.zeros(len(a) + 1)  # the weights build_segments describes, all >= +0.0
    d[:-1] += a - b
    d[1:] += b
    theta = vulnerability.theta
    step = np.flatnonzero(vulnerability.beta == 0.0)
    beta = vulnerability.beta.copy()
    beta[step] = 1.0  # those columns are replaced by the step in _exceedance_block
    e_t, log_m_t = _frexp_logs(theta)
    x_all = np.array(loss_grid, dtype=float)[:, None]
    e_x, log_m_x = _frexp_logs(x_all)
    rows = max(1, _BLOCK_CELLS // len(theta))
    frequencies = []
    for start in range(0, len(loss_grid), rows):
        block = slice(start, start + rows)
        q = _exceedance_block(
            x_all[block], e_x[block], log_m_x[block], theta, e_t, log_m_t, beta, step
        )
        frequencies.extend((q * d).sum(axis=1).tolist())
    return RiskCurve(losses=loss_grid, frequencies=tuple(frequencies))
