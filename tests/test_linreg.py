import math

import numpy as np
import pytest
from scipy import integrate

from riskseries import dist, linreg
from riskseries.autoreg import Z_ALPHA_TABLE
from riskseries.errors import DataError, NumericalError, UsageError
from riskseries.linreg import CI_ALPHA, fit_ols
from riskseries.dist import (
    f_upper_tail,
    normal_cdf,
    normal_quantile,
    student_t_critical,
    student_t_two_sided_p,
)


def lag_pairs(values, lag=1):
    return list(values[lag:]), [list(values[:-lag])]


# ---------------------------------------------------------------- goldens

def test_lag1_regression_on_raw_fixture(event_series):
    # Published spreadsheet output for precip(t) on precip(t-1), 30 pairs.
    y, xs = lag_pairs(event_series.values)
    report = fit_ols(y, xs)
    intercept, slope = report.coefficients
    assert intercept.estimate == pytest.approx(267.592408, rel=1e-7)
    assert slope.estimate == pytest.approx(0.41949996, rel=1e-7)
    assert slope.std_error == pytest.approx(0.228299, rel=1e-5)
    assert slope.t_stat == pytest.approx(1.83750007, rel=1e-7)
    assert slope.p_value == pytest.approx(0.0767705, rel=1e-5)
    assert report.r_squared == pytest.approx(0.10760973, rel=1e-7)
    assert report.r_multiple == pytest.approx(0.32803921, rel=1e-7)
    assert report.std_error_regression == pytest.approx(262.491897, rel=1e-7)
    assert report.anova.f_stat == pytest.approx(3.376406518, rel=1e-7)
    assert report.anova.significance_f == pytest.approx(0.07677, rel=1e-4)
    assert slope.ci_lower_95 == pytest.approx(-0.04815, abs=5e-6)
    assert slope.ci_upper_95 == pytest.approx(0.8871498, rel=1e-6)
    assert report.n == 30


def test_lag1_regression_on_detrended_fixture(detrended_series):
    # The detrended column is published rounded, so matches are a bit looser.
    y, xs = lag_pairs(detrended_series.values)
    report = fit_ols(y, xs)
    assert report.coefficients[0].estimate == pytest.approx(1.382648743, rel=5e-3)
    assert report.coefficients[1].estimate == pytest.approx(0.161812235, rel=5e-3)
    assert report.r_squared == pytest.approx(0.022101535, rel=5e-3)
    assert report.std_error_regression == pytest.approx(52.17970381, rel=5e-3)
    assert report.r_squared_adj == pytest.approx(-0.012823411, rel=5e-3)
    assert report.anova.f_stat == pytest.approx(0.632829472, rel=5e-3)


def test_exact_fit():
    x = [1.0, 2.0, 3.0, 4.0, 5.0]
    y = [2 * v + 1 for v in x]
    report = fit_ols(y, [x])
    assert report.coefficients[0].estimate == pytest.approx(1.0, abs=1e-12)
    assert report.coefficients[1].estimate == pytest.approx(2.0, abs=1e-12)
    assert report.anova.residual_ss == pytest.approx(0.0, abs=1e-18)
    assert report.r_squared == pytest.approx(1.0, abs=1e-12)


# ------------------------------------------------------------- properties

def test_ols_properties_on_random_instances():
    rng = np.random.default_rng(42)
    for _ in range(40):
        n = int(rng.integers(8, 60))
        k_regressors = int(rng.integers(1, 4))
        x_cols = [rng.normal(size=n) for _ in range(k_regressors)]
        beta = rng.normal(size=k_regressors + 1)
        y = beta[0] + sum(b * col for b, col in zip(beta[1:], x_cols))
        y = y + rng.normal(scale=0.5, size=n)
        report = fit_ols(y, x_cols)
        anova = report.anova
        # ANOVA identity
        assert anova.total_ss == pytest.approx(
            anova.regression_ss + anova.residual_ss, rel=1e-10
        )
        # residual orthogonality against every design column
        coef = [c.estimate for c in report.coefficients]
        fitted = coef[0] + sum(b * col for b, col in zip(coef[1:], x_cols))
        residuals = y - fitted
        scale = float(np.max(np.abs(y))) * n
        assert abs(residuals.sum()) < 1e-8 * scale
        for col in x_cols:
            assert abs(float(residuals @ col)) < 1e-8 * scale * float(np.max(np.abs(col)))
        # adjusted R^2 formula
        expected_adj = 1 - (1 - report.r_squared) * (n - 1) / (n - (k_regressors + 1))
        assert report.r_squared_adj == pytest.approx(expected_adj, rel=1e-10)
        if k_regressors == 1:
            # slope by the textbook covariance ratio; t^2 = F
            x = x_cols[0]
            slope_brute = float(((x - x.mean()) * (y - y.mean())).sum()
                                / ((x - x.mean()) ** 2).sum())
            assert report.coefficients[1].estimate == pytest.approx(slope_brute, rel=1e-8)
            assert report.coefficients[1].t_stat ** 2 == pytest.approx(
                anova.f_stat, rel=1e-8
            )


def test_rank_deficiency_reports_offending_column():
    x = [1.0, 2.0, 3.0, 4.0, 5.0]
    duplicate = [2.0, 4.0, 6.0, 8.0, 10.0]
    with pytest.raises(NumericalError, match="x2"):
        fit_ols([1.0, 2.0, 0.5, 3.0, 1.5], [x, duplicate])
    with pytest.raises(NumericalError, match="x1"):
        fit_ols([1.0, 2.0, 0.5, 3.0], [[4.0, 4.0, 4.0, 4.0]])  # clashes with intercept


def test_usage_and_data_errors():
    with pytest.raises(UsageError, match=r"^need more rows than columns, got n=2, k=2$"):
        fit_ols([1.0, 2.0], [[1.0, 2.0]])
    with pytest.raises(UsageError):
        fit_ols([1.0, 2.0, 3.0], [[1.0, 2.0]])  # length mismatch
    with pytest.raises(UsageError):
        fit_ols([1.0, 2.0, 3.0], [])
    with pytest.raises(DataError):
        fit_ols([1.0, float("nan"), 3.0], [[1.0, 2.0, 3.0]])
    with pytest.raises(DataError, match=r"^design matrix contains non-finite entries$"):
        fit_ols([1.0, 2.0, 3.0], [[1.0, math.inf, 3.0]])


def test_constant_response_is_reported_not_crashed():
    report = fit_ols([4.0, 4.0, 4.0, 4.0], [[1.0, 2.0, 3.0, 4.0]])
    assert report.coefficients[1].estimate == pytest.approx(0.0, abs=1e-14)
    assert report.r_squared == 0.0
    assert report.anova.significance_f == 1.0


# ------------------------------------------------- distribution kernels

def t_density(df):
    const = math.exp(math.lgamma((df + 1) / 2) - math.lgamma(df / 2)) / math.sqrt(df * math.pi)
    return lambda u: const * (1 + u * u / df) ** (-(df + 1) / 2)


def f_density(d1, d2):
    log_const = (
        math.lgamma((d1 + d2) / 2) - math.lgamma(d1 / 2) - math.lgamma(d2 / 2)
        + (d1 / 2) * math.log(d1 / d2)
    )
    return lambda u: math.exp(
        log_const + (d1 / 2 - 1) * math.log(u) - ((d1 + d2) / 2) * math.log1p(d1 * u / d2)
    )


def test_student_t_two_sided_p_trivial_and_golden():
    assert student_t_two_sided_p(0.0, 5) == pytest.approx(1.0, abs=1e-15)
    assert student_t_two_sided_p(1.83750007, 28) == pytest.approx(0.0767705, abs=5e-8)
    # the published 0.573640953 was computed before its t was rounded to
    # 7 digits, which moves p by ~1.2e-8; the bound covers that rounding
    assert student_t_two_sided_p(-0.5705011, 24) == pytest.approx(0.573640953, abs=5e-8)


def test_student_t_against_quadrature_oracle():
    for df in (1, 2, 3, 5, 10, 24, 28, 50):
        density = t_density(df)
        for t in (0.3, 1.0, 1.83750007, 2.5, 5.0, 10.0):
            tail, _ = integrate.quad(density, t, math.inf, limit=200)
            assert student_t_two_sided_p(t, df) == pytest.approx(2 * tail, abs=1e-8)
            assert student_t_two_sided_p(-t, df) == pytest.approx(2 * tail, abs=1e-8)


def test_f_upper_tail_trivial_and_golden():
    assert f_upper_tail(0.0, 3, 10) == pytest.approx(1.0, abs=1e-15)
    assert f_upper_tail(3.376406518, 1, 28) == pytest.approx(0.07677, abs=5e-6)
    assert f_upper_tail(1.112687067, 3, 24) == pytest.approx(0.363433, abs=5e-7)


def test_f_upper_tail_against_quadrature_oracle():
    for d1, d2 in ((1, 28), (3, 24), (2, 10), (5, 5), (10, 40)):
        density = f_density(d1, d2)
        for f in (0.2, 1.0, 1.112687067, 3.376406518, 8.0):
            head, _ = integrate.quad(density, 0.0, f, limit=200)
            assert f_upper_tail(f, d1, d2) == pytest.approx(1 - head, abs=1e-8)


def test_t_critical_value():
    # inverts the two-sided tail; spreadsheet value for 95% CI at 28 df
    assert student_t_critical(0.05, 28) == pytest.approx(2.048407142, abs=1e-8)
    assert student_t_two_sided_p(student_t_critical(0.01, 7), 7) == pytest.approx(
        0.01, abs=1e-12
    )


def test_normal_helpers():
    assert normal_cdf(0.0) == pytest.approx(0.5, abs=1e-15)
    assert normal_cdf(1.96) == pytest.approx(0.9750021049, abs=1e-9)
    assert normal_quantile(0.975) == pytest.approx(1.959963985, abs=1e-8)
    with pytest.raises(UsageError):
        normal_quantile(1.0)
    with pytest.raises(UsageError):
        student_t_two_sided_p(1.0, 0)
    with pytest.raises(UsageError):
        f_upper_tail(-0.5, 1, 1)


@pytest.mark.parametrize("seed", range(40))
def test_residual_ss_bits_match_the_generator_form(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 400))
    k = int(rng.integers(1, 4))
    scale = 10.0 ** rng.integers(-3, 7)
    regressors = [rng.normal(0.0, scale, n).tolist() for _ in range(k)]
    y = (rng.normal(0.0, 1.0, n) * scale + 1e3 * scale).tolist()
    # The fitted values and residuals fit_ols takes its sums of squares from.
    x = np.column_stack([np.ones(n), *regressors])
    q, r = np.linalg.qr(x)
    y_vec = np.asarray(y)
    fitted = x @ np.linalg.solve(r, q.T @ y_vec)
    residuals = y_vec - fitted
    y_mean = math.fsum(y) / n
    anova = fit_ols(y, regressors).anova
    assert anova.residual_ss.hex() == math.fsum(e * e for e in residuals.tolist()).hex()
    assert anova.total_ss.hex() == math.fsum((v - y_mean) ** 2 for v in y).hex()
    assert anova.regression_ss.hex() == \
        math.fsum((f - y_mean) ** 2 for f in fitted.tolist()).hex()


@pytest.mark.parametrize("k", range(2, 9))
def test_inverse_of_r_is_bit_equal_to_solving_against_the_identity(k):
    # fit_ols takes the (X'X)^-1 factor from inv(R); it must keep the bits
    # of solve(R, I), which it used before.
    rng = np.random.default_rng([1303, k])
    for trial in range(60):
        if trial % 2:
            scales = 10.0 ** rng.integers(-3, 4, size=(k, k))
            r = np.triu(rng.normal(size=(k, k)) * scales)
            r[np.diag_indices(k)] += np.copysign(0.1, r.diagonal())
        else:
            n = int(rng.integers(k + 1, 200))
            x = np.column_stack([np.ones(n), rng.normal(0.0, 10.0, size=(n, k - 1))])
            r = np.linalg.qr(x)[1]
        assert np.linalg.inv(r).tobytes() == np.linalg.solve(r, np.eye(k)).tobytes()


def test_design_is_column_stack_of_the_same_columns():
    rng = np.random.default_rng(1304)
    for trial in range(40):
        n = int(rng.integers(1, 300))
        y = rng.normal(0.0, 10.0 ** rng.integers(-5, 6), size=2 * n + 4)
        kinds = [
            lambda: y[2:n + 2],  # a view, as autoreg's lag columns are
            lambda: y[:2 * n:2],  # a strided view
            lambda: y[:n].tolist(),
            lambda: rng.integers(-5, 5, size=n),
            lambda: rng.integers(-5, 5, size=n).tolist(),
            lambda: y[:n].astype(np.float32),
            lambda: np.arange(1.0, n + 1),
        ]
        regressors = [kinds[int(j)]() for j in rng.integers(0, len(kinds), size=rng.integers(1, 8))]
        expected = np.column_stack(
            [np.ones(n), *(np.asarray(column, dtype=float) for column in regressors)]
        )
        design = linreg._design(n, regressors)
        assert (design.dtype, design.shape) == (expected.dtype, expected.shape)
        assert design.flags.c_contiguous and expected.flags.c_contiguous
        assert design.tobytes() == expected.tobytes()


def test_total_ss_squares_round_as_python_pow(squares_that_differ):
    # y = (-d, 0, d) has mean 0, so the total sum of squares is exactly
    # twice the square of d: the square's bits show through.
    for d in squares_that_differ:
        y = [-d, 0.0, d]
        expected = math.fsum(v ** 2 for v in y)
        assert fit_ols(y, [[1.0, 5.0, 2.0]]).anova.total_ss.hex() == expected.hex()


def _bisection_t_critical(alpha: float, df: int) -> float:
    """student_t_critical as written with a fixed 200 bisection steps."""
    lo, hi = 0.0, 1.0
    while student_t_two_sided_p(hi, df) > alpha:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if student_t_two_sided_p(mid, df) > alpha:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _bisection_normal_quantile(p: float) -> float:
    """normal_quantile as written with a fixed 120 bisection steps."""
    lo, hi = -40.0, 40.0
    for _ in range(120):
        mid = 0.5 * (lo + hi)
        if normal_cdf(mid) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# The alphas the library and the CLI use: CI_ALPHA, the CLI's default
# --alpha, the snapshots' 0.3 and the conventional table.
ALPHAS = sorted({CI_ALPHA, 0.05, 0.3, *Z_ALPHA_TABLE})


def test_t_critical_stops_at_the_fixed_point_of_the_200_step_bisection():
    # CI_ALPHA is the only level fit_ols asks for: every df up to 1000.
    cases = [(CI_ALPHA, df) for df in range(1, 1001)]
    cases += [(alpha, df) for alpha in ALPHAS if alpha != CI_ALPHA
              for df in [*range(1, 11), 12, 15, 20, 28, 40, 60, 100, 200, 500, 1000]]
    for alpha, df in cases:
        assert student_t_critical.__wrapped__(alpha, df).hex() == \
            _bisection_t_critical(alpha, df).hex(), (alpha, df)


def test_normal_quantile_stops_at_the_fixed_point_of_the_120_step_bisection():
    rng = np.random.default_rng(20163)
    ps = [*(1.0 - alpha / 2.0 for alpha in ALPHAS), *(alpha / 2.0 for alpha in ALPHAS),
          0.5, 1e-300, 1.0 - 2.0 ** -53, *rng.random(2000).tolist()]
    for p in ps:
        assert normal_quantile(p).hex() == _bisection_normal_quantile(p).hex(), p


def test_cold_t_critical_takes_fewer_than_70_evaluations(monkeypatch):
    calls = 0

    def counted(t, df):
        nonlocal calls
        calls += 1
        return student_t_two_sided_p(t, df)

    monkeypatch.setattr(dist, "student_t_two_sided_p", counted)
    for alpha in ALPHAS:
        for df in (1, 2, 5, 28, 100, 1000, 9999):
            calls = 0
            student_t_critical.__wrapped__(alpha, df)
            assert calls < 70, (alpha, df, calls)
