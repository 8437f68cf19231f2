"""Extreme-value and risk-curve mathematics.

gev_pdf evaluates the generalized extreme value density in its standard
parameterization (Gumbel at shape 0, Frechet for positive shape, Weibull
for negative), returning 0 outside the support and wherever exp(-t)
underflows to 0. A density above the largest double, which only a
subnormal scale reaches, is a NumericalError.

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

Each risk input is one record of read-only float64 columns that checks
its own rules. A HazardCurve holds s and g: at least 2 points, each
checked by check_hazard_point in grid order. A VulnerabilityCurve holds
s, mean_loss and cov, each point checked by lognormal_params, and keeps
the theta and beta it returns as two more columns. check_grid pairs the
two on one grid; build_segments reads the hazard alone.

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
bit, the scalar conditional_exceedance(x, theta, beta). Each loss's
frequency is the row sum (q * d).sum(axis=1): numpy's pairwise sum in a
fixed order along the row, which depends neither on the block a row
falls in nor on a BLAS build, its CPU kernel or its thread count. It is
not an exactly rounded sum, so frequencies may differ from a sum in
another order in the last digits.
"""
from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from ._record import Record
from .dist import _SQRT2, normal_cdf
from .errors import DataError, NumericalError, UsageError

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
        density = math.exp(-z - math.exp(-z)) / params.sigma
    else:
        u = 1.0 + xi * z
        if u <= 0.0:
            return 0.0
        log_u = math.log1p(xi * z)
        exponent = -log_u / xi
        if exponent > 700.0:
            return 0.0  # t -> inf, exp(-t) dominates
        t = math.exp(exponent)  # (1 + xi z)^(-1/xi)
        tail = math.exp(-t)
        if tail == 0.0:
            return 0.0  # where u is near 0, t / u may overflow and inf * 0 is NaN
        density = t / u * tail / params.sigma
    if density == math.inf:
        raise NumericalError(
            f"GEV density at x={x!r} overflows a double for scale {params.sigma!r}"
        )
    return density


def lognormal_params(mean: float, cov: float) -> tuple[float, float]:
    """(median theta, log-sd beta) of a lognormal with given mean and CoV.

    The one rule for a vulnerability point: VulnerabilityCurve takes each
    point's theta and beta, or its UsageError, from here, and the scalar
    conditional probabilities take the pair it returns.
    """
    if not mean > 0.0:
        raise UsageError(f"mean loss must be positive, got {mean!r}")
    if not cov >= 0.0:
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
    if mean == math.inf:  # checked last, so each earlier rejection keeps its message
        raise UsageError(f"mean loss must be finite, got {mean!r}")
    return theta, beta


def _set_columns(record: Record, what: str, **columns) -> list[np.ndarray]:
    """``columns`` as read-only float64 copies, set on ``record`` under their names.

    They must be one-dimensional and of one length, or it is a UsageError.
    """
    arrays = [np.array(column, dtype=float) for column in columns.values()]
    shapes = [str(array.shape) for array in arrays]
    if not (arrays[0].ndim == 1 and len(set(shapes)) == 1):
        raise UsageError(f"{what} columns must be one-dimensional and of one length, "
                         f"got shapes {', '.join(shapes[:-1])} and {shapes[-1]}")
    for name, array in zip(columns, arrays):
        array.flags.writeable = False
        object.__setattr__(record, name, array)
    return arrays


class VulnerabilityCurve(Record, eq=False):
    """Conditional loss distributions over an intensity grid, as columns.

    ``s``, ``mean_loss`` and ``cov`` are read-only float64 columns of one
    length, copied on construction. Each point goes through
    lognormal_params, in grid order, so the first rejected point raises its
    UsageError. ``theta`` and ``beta``, the columns of what it returns, are
    derived attributes, not fields.
    """

    s: np.ndarray
    mean_loss: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        s, mean, cov = _set_columns(self, "vulnerability", s=self.s, mean_loss=self.mean_loss,
                                    cov=self.cov)
        params = np.array(list(map(lognormal_params, mean.tolist(), cov.tolist())), dtype=float)
        theta, beta = params.reshape(len(s), 2).T
        _set_columns(self, "vulnerability", theta=theta, beta=beta)

    def __len__(self) -> int:
        return len(self.s)


def conditional_nonexceedance(x: float, theta: float, beta: float) -> float:
    """P[X <= x | S = s] for the lognormal of median theta and log-sd beta at s.

    This is normal_cdf(log(x / theta) / beta), with the log taken from the
    frexp parts of x and theta as the module docstring describes. A loss
    of 0, or one whose ratio to theta underflows to 0, gives 0; at
    beta = 0 the loss is deterministic and P steps from 0 to 1 at theta.
    """
    return normal_cdf(_standard_score(x, theta, beta))


def conditional_exceedance(x: float, theta: float, beta: float) -> float:
    """P[X > x | S = s], taken directly as erfc(z / sqrt 2) / 2.

    z is the standard score of conditional_nonexceedance, so this is
    1 - conditional_nonexceedance without the cancellation where that is
    near 1: a loss of 0, or one whose ratio to theta underflows to 0,
    gives 1, and at beta = 0 it steps from 1 to 0 at theta. Every cell of
    risk_curve equals this, bit for bit.
    """
    return 0.5 * math.erfc(_standard_score(x, theta, beta) / _SQRT2)


def check_loss(x: float) -> float:
    """``x``, or a UsageError unless it is a non-negative loss (NaN is not)."""
    if not x >= 0.0:
        raise UsageError(f"loss must be non-negative, got {x!r}")
    return x


def _standard_score(x: float, theta: float, beta: float) -> float:
    """z = log(x / theta) / beta; -inf where X > x is certain, +inf where X <= x is."""
    if check_loss(x) == 0.0:
        return -math.inf
    if beta == 0.0:
        return math.inf if x >= theta else -math.inf  # deterministic loss
    if x / theta == 0.0:
        return -math.inf  # x / theta underflowed; P -> 0 as x -> 0
    m_x, e_x = math.frexp(x)
    m_t, e_t = math.frexp(theta)
    return _log_ratio(e_x - e_t, math.log(m_x), math.log(m_t)) / beta


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


class HazardCurve(Record, eq=False):
    """Intensity grid with mean annual exceedance frequencies, as columns.

    ``s`` and ``g`` are read-only float64 columns of one length, copied on
    construction. Each point (s_i, g_i) goes through check_hazard_point, in
    grid order, so the first rejected point raises its DataError. Then a
    curve of fewer than 2 points, which has no segment, raises UsageError.
    """

    s: np.ndarray
    g: np.ndarray

    def __post_init__(self):
        s, g = _set_columns(self, "hazard", s=self.s, g=self.g)
        points = list(zip(s.tolist(), g.tolist()))
        for previous, point in zip([(-math.inf, math.inf), *points], points):
            check_hazard_point(previous, point)
        if len(points) < 2:
            raise UsageError(f"need at least 2 hazard points, got {len(points)}")

    def __len__(self) -> int:
        return len(self.s)


def check_grid(hazard: HazardCurve, s: Sequence[float]) -> None:
    """Raise UsageError unless ``s`` is the grid of ``hazard``."""
    if len(s) != len(hazard):
        raise UsageError(f"vulnerability has {len(s)} points, hazard has {len(hazard)}")
    if not np.array_equal(s, hazard.s):
        i = int(np.argmax(np.asarray(s) != hazard.s))
        raise UsageError(f"vulnerability grid is misaligned: "
                         f"s={float(s[i])} vs hazard s={float(hazard.s[i])}")


def build_segments(hazard: HazardCurve) -> tuple[np.ndarray, np.ndarray]:
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
    Only the hazard's ``g`` column is read.
    """
    g = hazard.g.tolist()
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
    vulnerability: VulnerabilityCurve,
) -> RiskCurve:
    """Annual loss-exceedance frequencies over a loss grid.

    Contributions outside [s_1, s_n] are truncated, so a loss of 0 maps
    to the total in-range frequency G_1 - G_n.
    """
    check_grid(hazard, vulnerability.s)
    a, b = build_segments(hazard)
    loss_grid = tuple(check_loss(float(x)) for x in losses)
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
