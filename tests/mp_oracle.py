"""40-digit risk-curve oracle.

Recomputes the annual loss-exceedance frequencies with mpmath from the
input doubles alone: each point's lognormal median theta and log-sd beta
from its mean loss and coefficient of variation, every conditional
non-exceedance probability

    p = erfc(-ln(x / theta) / (beta * sqrt(2))) / 2

(0 at x = 0, and a step at theta where beta = 0), and each segment's
closed-form weights a = G_{i-1} - G_i and
b = G_{i-1} * ((e^t - 1)/t - e^t), t = ln(G_i / G_{i-1}), the limit 0 at
t = 0. A segment contributes (1 - p_{i-1}) * a - (p_i - p_{i-1}) * b.
The oracle takes 1 - p directly as erfc(ln(x / theta) / (beta * sqrt(2))) / 2,
so a p within 1e-40 of 1 does not cancel to 0 in the far tail.
Nothing here calls into ``riskseries``.
"""
import mpmath
from mpmath import mp, mpf

DIGITS = 40


def _lognormal(mean: float, cov: float):
    cov2 = mpf(cov) ** 2
    return mpf(mean) / mp.sqrt(1 + cov2), mp.sqrt(mp.log1p(cov2))


def _exceedance(x, theta, beta):
    """1 - p, P[X > x | S = s]."""
    if x == 0:
        return mpf(1)
    if beta == 0:
        return mpf(0) if x >= theta else mpf(1)
    return mp.erfc(mp.log(x / theta) / (beta * mp.sqrt(2))) / 2


def _weights(g_prev, g_cur):
    a = g_prev - g_cur
    t = mp.log(g_cur / g_prev)
    if t == 0:
        return a, mpf(0)
    return a, g_prev * (mp.expm1(t) / t - mp.exp(t))


def frequencies(losses, hazard_points, vulnerability_rows) -> list:
    """Exact-to-40-digits frequencies, one ``mpf`` per loss.

    ``hazard_points`` are ``(s, G)`` pairs and ``vulnerability_rows``
    ``(s, mean_loss, cov)`` triples, all floats, on the same grid.
    """
    with mp.workdps(DIGITS):
        g = [mpf(gi) for _, gi in hazard_points]
        weights = [_weights(g_prev, g_cur) for g_prev, g_cur in zip(g, g[1:])]
        params = [_lognormal(mean, cov) for _, mean, cov in vulnerability_rows]
        result = []
        for x in losses:
            x = mpf(x)
            q = [_exceedance(x, theta, beta) for theta, beta in params]
            result.append(mpmath.fsum(
                q_prev * a + (q_cur - q_prev) * b
                for (a, b), q_prev, q_cur in zip(weights, q, q[1:])
            ))
        return result


def relative_error(computed: float, exact) -> float:
    """|computed - exact| / |exact| as a float; 0 when both are 0."""
    with mp.workdps(DIGITS):
        if exact == 0:
            return 0.0 if computed == 0.0 else float("inf")
        return float(abs(mpf(computed) - exact) / abs(exact))
