"""Scalar distribution kernels: normal, Student t and F tail probabilities.

Student t and F tails are evaluated through the regularized incomplete
beta function, computed with the classic continued-fraction expansion
(modified Lentz iteration) converged to 1e-12. That is enough to
reproduce spreadsheet regression p-values to every printed digit. The
tails own their limits: the beta argument, and so the tail, is exactly 0
at t = +-inf or F = inf and exactly 1 at t = 0 or F = 0. Past the edge
where t * t overflows (|t| >= 2**512), the t tail is its leading term,
2 / (pi |t|) at df 1 and 1 / t**2 at df 2, and 0.0 from df 3, whose tail
is below 2**-1536 there; where d1 * f overflows, the F tail takes the
beta argument d2 / d1 / f. Both are 0 at an infinite statistic. A t
critical value past 2**512 raises NumericalError.
The normal CDF rides on the C library's erfc, which is good to machine
precision; quantiles are obtained by bisection, which stops once the
midpoint of its bracket is one of the bracket's ends.
"""
from __future__ import annotations

import math
from functools import lru_cache

from .errors import NumericalError, UsageError

_CF_EPS = 1e-12
_CF_MAX_ITER = 500
_CF_TINY = 1e-300
_SQRT2 = math.sqrt(2.0)


def normal_cdf(z: float) -> float:
    """Standard normal CDF via the complementary error function."""
    return 0.5 * math.erfc(-z / _SQRT2)


def _bisect(below, lo: float, hi: float, steps: int) -> float:
    """Where ``below`` turns from true at ``lo`` to false at ``hi``, by at
    most ``steps`` halvings of the bracket: the midpoint of the last one."""
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            # lo only ever holds points where below is true and hi points
            # where it is false, so every further step would leave both unchanged.
            break
        if below(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def normal_quantile(p: float) -> float:
    """Inverse standard normal CDF for p in (0, 1)."""
    if not 0.0 < p < 1.0:
        raise UsageError(f"normal quantile needs p in (0, 1), got {p!r}")
    return _bisect(lambda z: normal_cdf(z) < p, -40.0, 40.0, 120)


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta (modified Lentz)."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _CF_TINY:
        d = _CF_TINY
    d = 1.0 / d
    h = d
    for m in range(1, _CF_MAX_ITER + 1):
        m2 = 2 * m
        numerator = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + numerator * d
        if abs(d) < _CF_TINY:
            d = _CF_TINY
        c = 1.0 + numerator / c
        if abs(c) < _CF_TINY:
            c = _CF_TINY
        d = 1.0 / d
        h *= d * c
        numerator = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + numerator * d
        if abs(d) < _CF_TINY:
            d = _CF_TINY
        c = 1.0 + numerator / c
        if abs(c) < _CF_TINY:
            c = _CF_TINY
        d = 1.0 / d
        step = d * c
        h *= step
        if abs(step - 1.0) < _CF_EPS:
            return h
    raise NumericalError(
        f"incomplete beta continued fraction did not converge for a={a}, b={b}, x={x}"
    )


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b) for a, b > 0 and x in [0, 1]."""
    if a <= 0.0 or b <= 0.0:
        raise UsageError(f"beta parameters must be positive, got a={a}, b={b}")
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    log_front = (
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log1p(-x)
    )
    front = math.exp(log_front)
    # Use the expansion on the side where it converges quickly.
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def _check_count(value: int, name: str):
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise UsageError(f"{name} must be a positive integer, got {value!r}")


def _check_alpha(alpha: float):
    if not 0.0 < alpha < 1.0:
        raise UsageError(f"alpha must be in (0, 1), got {alpha!r}")


def student_t_two_sided_p(t: float, df: int) -> float:
    """Pr{|T| > |t|} for Student t with ``df`` degrees of freedom."""
    _check_count(df, "degrees of freedom")
    t = float(t)
    if math.isnan(t):
        raise UsageError("t statistic must not be NaN")
    x = df / (df + t * t)
    if x == 0.0 and df <= 2:
        # t * t overflowed: the tail's leading term, 2 / (pi |t|) or 1 / t**2.
        return (2 / math.pi) / abs(t) if df == 1 else (1 / abs(t)) / abs(t)
    return regularized_incomplete_beta(df / 2.0, 0.5, x)


def f_upper_tail(f: float, d1: int, d2: int) -> float:
    """Pr{F(d1, d2) > f}."""
    _check_count(d1, "numerator degrees of freedom")
    _check_count(d2, "denominator degrees of freedom")
    f = float(f)
    if math.isnan(f) or f < 0.0:
        raise UsageError(f"F statistic must be non-negative, got {f!r}")
    x = d2 / (d2 + d1 * f)
    if x == 0.0:  # d1 * f overflowed
        x = d2 / d1 / f
    return regularized_incomplete_beta(d2 / 2.0, d1 / 2.0, x)


@lru_cache(maxsize=256)
def student_t_critical(alpha: float, df: int) -> float:
    """t* such that Pr{|T| > t*} = alpha (two sided)."""
    _check_count(df, "degrees of freedom")
    _check_alpha(alpha)
    lo, hi = 0.0, 1.0
    while student_t_two_sided_p(hi, df) > alpha:
        hi *= 2.0
        if math.isinf(hi * hi):
            raise NumericalError(f"t critical value out of range for alpha={alpha}, df={df}")
    return _bisect(lambda t: student_t_two_sided_p(t, df) > alpha, lo, hi, 200)
