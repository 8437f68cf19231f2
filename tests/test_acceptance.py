"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py -v`` to see the lines as
they print. Every tolerance is pinned here, not calibrated elsewhere.
"""
import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest
from scipy import integrate

from riskseries.autoreg import fit_ar, lag_correlation, select_order
from riskseries.cli import main
from riskseries.dist import f_upper_tail, student_t_two_sided_p
from riskseries.evt_risk import GevParams, gev_pdf, risk_curve
from riskseries.linreg import fit_ols
from riskseries.peaks import ThresholdSpec, pot_compact, pot_zerofill
from riskseries.residuals import residual_analysis
from riskseries.series import TimeSeries
from riskseries.trend import detrend, fit_trend, mann_kendall

from mk_oracle import exact_two_sided_p
from test_evt_risk import make_instance, trapezoid_oracle


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"[acceptance] {name}: FAIL")
        raise
    else:
        print(f"[acceptance] {name}: PASS")


def best_of(runs, fn):
    elapsed = []
    for _ in range(runs):
        start = time.perf_counter()
        fn()
        elapsed.append(time.perf_counter() - start)
    return min(elapsed)


def rel_close(value, expected, rel):
    assert value == pytest.approx(expected, rel=rel), (value, expected, rel)


# 1 ---------------------------------------------------------------------

def test_c1_pot_semantics(simple_series):
    with criterion("C1 POT semantics (compact + zero-fill, exact)"):
        spec = ThresholdSpec(100.0)
        compact = pot_compact(simple_series, spec)
        assert list(zip(compact.indices.tolist(), compact.values.tolist())) == [
            (1, 200.0), (4, 120.0), (6, 110.0), (7, 180.0),
            (9, 190.0), (10, 110.0), (12, 110.0),
        ]
        zero_filled = pot_zerofill(simple_series, spec)
        assert zero_filled.indices.tolist() == list(range(1, 13))
        assert zero_filled.values.tolist() == [200, 0, 0, 120, 0, 110, 180, 0, 190, 110, 0, 110]
        runtime = best_of(5, lambda: (pot_compact(simple_series, spec),
                                      pot_zerofill(simple_series, spec)))
        assert runtime < 1e-3, f"runtime {runtime * 1e3:.3f} ms"


# 2 ---------------------------------------------------------------------

def test_c2_raw_ar1_golden(event_series):
    with criterion("C2 raw AR(1) golden (rel 5e-3)"):
        model = fit_ar(event_series, 1)
        report = model.report
        slope = report.coefficients[1]
        rel_close(model.b0, 267.592408, 5e-3)
        rel_close(model.b[0], 0.41949996, 5e-3)
        rel_close(report.r_squared, 0.10760973, 5e-3)
        rel_close(report.std_error_regression, 262.491897, 5e-3)
        rel_close(report.anova.f_stat, 3.376406518, 5e-3)
        rel_close(report.anova.significance_f, 0.07677, 5e-3)
        rel_close(slope.ci_lower_95, -0.04815, 5e-3)
        rel_close(slope.ci_upper_95, 0.8871498, 5e-3)
        runtime = best_of(5, lambda: fit_ar(event_series, 1))
        assert runtime < 10e-3, f"runtime {runtime * 1e3:.3f} ms"


# 3 ---------------------------------------------------------------------

def test_c3_raw_ar2_ar3_golden(event_series):
    with criterion("C3 raw AR(2)/AR(3) golden (rel 1e-2)"):
        ar2 = fit_ar(event_series, 2).report
        expected2 = [  # (estimate, t, p) per coefficient, intercept first
            (244.810699, 1.94718708, 0.062389478),
            (0.40025971, 1.5622227, 0.130326579),
            (0.07408742, 0.29227157, 0.772398608),
        ]
        for stat, (estimate, t, p) in zip(ar2.coefficients, expected2):
            rel_close(stat.estimate, estimate, 1e-2)
            rel_close(stat.t_stat, t, 1e-2)
            rel_close(stat.p_value, p, 1e-2)
        rel_close(ar2.r_squared, 0.11091867, 1e-2)

        ar3 = fit_ar(event_series, 3).report
        expected3 = [
            (293.363292, 2.00287647, 0.056609992),
            (0.40810533, 1.54623378, 0.135133901),
            (0.10155194, 0.36257076, 0.720098983),
            (-0.1493143, -0.5705011, 0.573640953),
        ]
        for stat, (estimate, t, p) in zip(ar3.coefficients, expected3):
            rel_close(stat.estimate, estimate, 1e-2)
            rel_close(stat.t_stat, t, 1e-2)
            rel_close(stat.p_value, p, 1e-2)
        rel_close(ar3.r_squared, 0.12210307, 1e-2)


# 4 ---------------------------------------------------------------------

def test_c4_detrended_ar_golden(event_series, detrended_series):
    with criterion("C4 detrended AR(1)/(2)/(3) golden (rel 5e-2)"):
        ar1 = fit_ar(detrended_series, 1).report
        rel_close(ar1.coefficients[0].estimate, 1.382648743, 5e-2)
        rel_close(ar1.coefficients[1].estimate, 0.161812235, 5e-2)
        rel_close(ar1.r_squared, 0.022101535, 5e-2)
        rel_close(ar1.std_error_regression, 52.17970381, 5e-2)
        rel_close(ar1.r_squared_adj, -0.012823411, 5e-2)

        ar2 = fit_ar(detrended_series, 2).report
        rel_close(ar2.coefficients[0].estimate, -1.401310389, 5e-2)
        rel_close(ar2.coefficients[1].estimate, 0.163426393, 5e-2)
        rel_close(ar2.coefficients[2].estimate, -0.013931734, 5e-2)
        rel_close(ar2.r_squared, 0.024012602, 5e-2)
        rel_close(ar2.std_error_regression, 51.74028171, 5e-2)

        ar3 = fit_ar(detrended_series, 3).report
        rel_close(ar3.coefficients[0].estimate, -2.141059352, 5e-2)
        rel_close(ar3.coefficients[1].estimate, 0.152825569, 5e-2)
        rel_close(ar3.coefficients[2].estimate, 0.048112684, 5e-2)
        rel_close(ar3.coefficients[3].estimate, -0.316125243, 5e-2)
        rel_close(ar3.r_squared, 0.107093155, 5e-2)
        rel_close(ar3.std_error_regression, 51.3325957, 5e-2)

        # Flag, without asserting: detrending the raw fixture with its own
        # fitted line does not regenerate the published detrended column
        # (see data/NOTES.md), so these goldens run on that column itself.
        own = detrend(event_series, fit_trend(event_series))
        divergence = max(
            abs(a - b) for a, b in zip(own.values, detrended_series.values)
        )
        print(f"[acceptance] C4 note: self-fitted detrend deviates from the "
              f"published detrended column by up to {divergence:.1f} "
              f"(expected, column kept as fixture)")


# 5 ---------------------------------------------------------------------

def test_c5_lag1_correlations(event_series, detrended_series):
    with criterion("C5 lag-1 correlations (rel 1e-2; |r| == R-multiple to 1e-12)"):
        raw = lag_correlation(event_series, 1)
        det = lag_correlation(detrended_series, 1)
        rel_close(raw, 0.32803921, 1e-2)
        rel_close(det, 0.148665849, 1e-2)
        for series, value in ((event_series, raw), (detrended_series, det)):
            r_multiple = fit_ar(series, 1).report.r_multiple
            assert abs(abs(value) - r_multiple) <= 1e-12


# 6 ---------------------------------------------------------------------

def test_c6_residual_golden(event_series):
    with criterion("C6 residual golden rows + single outlier (rel 5e-3)"):
        model = fit_ar(event_series, 1)
        report = residual_analysis(model, event_series, outlier_threshold=3.0)
        first, last = 0, 29
        rel_close(report.y_predicted[first], 351.4924, 5e-3)
        rel_close(report.residual[first], 44.50760128, 5e-3)
        rel_close(report.standardized[first], 0.17255926, 5e-3)
        rel_close(report.percentile[first], 1.666666667, 5e-3)
        rel_close(report.y_predicted[last], 477.34239, 5e-3)
        rel_close(report.residual[last], 877.6576147, 5e-3)
        rel_close(report.standardized[last], 3.402743454, 5e-3)
        rel_close(report.percentile[last], 98.333333333, 5e-3)
        outliers = report.outlier.nonzero()[0]
        assert (outliers + 1).tolist() == [30]  # observation ids count from 1
        assert report.standardized[outliers[0]] > 3.0


# 7 ---------------------------------------------------------------------

def test_c7_order_selection(event_series):
    with criterion("C7 order selection (0 at alpha 0.05; 1 at alpha 0.10)"):
        at_05 = select_order([fit_ar(event_series, p) for p in range(1, 4)], alpha=0.05)
        assert at_05.selected_order == 0
        printed_t = {3: -0.5705011, 2: 0.29227157, 1: 1.83750007}
        for step in at_05.steps:
            assert abs(step.z - printed_t[step.p]) <= 1e-2
        at_10 = select_order([fit_ar(event_series, 1)], alpha=0.1)
        assert at_10.selected_order == 1


# 8 ---------------------------------------------------------------------

def test_c8_ols_property_suite():
    with criterion("C8 OLS property suite (200 instances, 1e-8)"):
        rng = np.random.default_rng(2024)
        for _ in range(200):
            n = int(rng.integers(8, 80))
            k_regressors = int(rng.integers(1, 5))
            x_cols = [rng.normal(scale=rng.uniform(0.5, 10.0), size=n)
                      for _ in range(k_regressors)]
            beta = rng.normal(size=k_regressors + 1)
            noise = rng.normal(scale=rng.uniform(0.1, 2.0), size=n)
            y = beta[0] + sum(b * c for b, c in zip(beta[1:], x_cols)) + noise
            report = fit_ols(y, x_cols)
            anova = report.anova
            assert anova.total_ss == pytest.approx(
                anova.regression_ss + anova.residual_ss, rel=1e-8
            )
            coef = [c.estimate for c in report.coefficients]
            fitted = coef[0] + sum(b * c for b, c in zip(coef[1:], x_cols))
            residuals_vec = y - fitted
            scale = float(np.max(np.abs(y))) * n
            assert abs(float(residuals_vec.sum())) < 1e-8 * scale
            for col in x_cols:
                bound = 1e-8 * scale * max(float(np.max(np.abs(col))), 1.0)
                assert abs(float(residuals_vec @ col)) < bound
            expected_adj = 1 - (1 - report.r_squared) * (n - 1) / (n - (k_regressors + 1))
            assert report.r_squared_adj == pytest.approx(expected_adj, rel=1e-8)
            if k_regressors == 1:
                assert report.coefficients[1].t_stat ** 2 == pytest.approx(
                    anova.f_stat, rel=1e-8
                )


# 9 ---------------------------------------------------------------------

def test_c9_distribution_kernels():
    with criterion("C9 t/F tails vs quadrature (1e-8) + printed p-values"):
        for df in (1, 2, 3, 5, 8, 13, 21, 28, 34, 50):
            log_const = (math.lgamma((df + 1) / 2) - math.lgamma(df / 2)
                         - 0.5 * math.log(df * math.pi))
            density = lambda u, df=df, c=log_const: math.exp(
                c - ((df + 1) / 2) * math.log1p(u * u / df)
            )
            for t in (0.25, 1.0, 2.0, 4.0, 10.0):
                tail, _ = integrate.quad(density, t, math.inf, limit=300)
                assert student_t_two_sided_p(t, df) == pytest.approx(2 * tail, abs=1e-8)
        for d1, d2 in ((1, 28), (3, 24), (2, 2), (5, 10), (10, 50), (7, 3)):
            log_const = (math.lgamma((d1 + d2) / 2) - math.lgamma(d1 / 2)
                         - math.lgamma(d2 / 2) + (d1 / 2) * math.log(d1 / d2))
            density = lambda u, a=d1, b=d2, c=log_const: math.exp(
                c + (a / 2 - 1) * math.log(u) - ((a + b) / 2) * math.log1p(a * u / b)
            )
            for f in (0.5, 1.0, 2.5, 6.0):
                head, _ = integrate.quad(density, 0.0, f, limit=300)
                assert f_upper_tail(f, d1, d2) == pytest.approx(1 - head, abs=1e-8)
        # printed p-values, to every printed digit
        assert f"{student_t_two_sided_p(1.83750007, 28):.7f}" == "0.0767705"
        assert f"{f_upper_tail(1.112687067, 3, 24):.6f}" == "0.363433"


# 10 --------------------------------------------------------------------

def test_c10_mann_kendall_permutation_oracle():
    with criterion("C10 Mann-Kendall vs exact permutation oracle (100 instances, 0.02)"):
        # Lengths 7 and 8 keep full enumeration cheap while the normal
        # approximation stays inside the stated 0.02 of the exact p for
        # every tie pattern up to triples (worst case 0.0175). Shorter
        # series break the stated bound intrinsically (0.025 at n=4,
        # |S|=4, no ties), so the instance design stays at 7..8; the
        # module tests pin the n=4..6 behavior at its true bound.
        rng = np.random.default_rng(777)
        count = 0
        worst = 0.0
        while count < 100:
            n = 7 + (count % 2)
            values = np.round(rng.normal(size=n), 1)
            _, multiplicities = np.unique(values, return_counts=True)
            if multiplicities.max() > 3:
                continue
            count += 1
            result = mann_kendall(TimeSeries.from_values(values), 0.05)
            worst = max(worst, abs(result.p_value - exact_two_sided_p(values)))
        assert worst <= 0.02, f"worst |p - exact| = {worst:.4f}"

        # rank invariance holds exactly under strictly monotone transforms
        for _ in range(25):
            values = rng.integers(-8, 9, size=10).astype(float)
            base = mann_kendall(TimeSeries.from_values(values), 0.05)
            transformed = mann_kendall(
                TimeSeries.from_values(np.exp(values / 4.0)), 0.05
            )
            assert transformed.S == base.S
            assert transformed.var_S == base.var_S
            assert transformed.decision == base.decision


# 11 --------------------------------------------------------------------

def test_c11_gev_normalization_and_continuity():
    with criterion("C11 GEV normalization (1e-6) and shape-0 continuity (1e-6)"):
        for xi in (-0.3, 0.0, 0.3):
            params = GevParams(0.0, 1.0, xi)
            lower = -1.0 / xi if xi > 0 else -math.inf
            upper = -1.0 / xi if xi < 0 else math.inf
            total, _ = integrate.quad(lambda v: gev_pdf(v, params), lower, upper, limit=500)
            assert total == pytest.approx(1.0, abs=1e-6)
        gumbel = GevParams(0.0, 1.0, 0.0)
        for xi in (1e-9, -1e-9):
            nearly = GevParams(0.0, 1.0, xi)
            for x in (-2.0, -0.5, 0.0, 1.0, 3.0, 8.0):
                assert gev_pdf(x, nearly) == pytest.approx(gev_pdf(x, gumbel), rel=1e-6)


# 12 --------------------------------------------------------------------

def test_c12_risk_curve_oracle():
    with criterion("C12 risk curve vs 1e5-point trapezoid (50 instances, 0.5%)"):
        rng = np.random.default_rng(4242)
        for instance in range(50):
            n_points = int(rng.integers(4, 9))
            hazard, vulnerability = make_instance(
                rng, n_points=n_points, flat_segment=(instance % 7 == 0)
            )
            top = float(vulnerability.mean_loss.max())
            losses = np.linspace(0.0, 3.0 * top, 10).tolist()
            start = time.perf_counter()
            curve = risk_curve(losses, hazard, vulnerability)
            elapsed = time.perf_counter() - start
            assert elapsed < 0.1, f"closed form took {elapsed * 1e3:.1f} ms"
            for x, r in zip(curve.losses, curve.frequencies):
                oracle = trapezoid_oracle(x, hazard, vulnerability)
                assert r == pytest.approx(oracle, rel=5e-3, abs=1e-9), (x, r, oracle)
            total_range = hazard.g[0] - hazard.g[-1]
            assert curve.frequencies[0] == pytest.approx(total_range, rel=1e-9)
            for a, b in zip(curve.frequencies, curve.frequencies[1:]):
                assert b <= a + 1e-12
            far = risk_curve([1e9 * top], hazard, vulnerability).frequencies[0]
            assert far == pytest.approx(0.0, abs=1e-12)


# 13 --------------------------------------------------------------------

def test_c13_pipeline_determinism(fixture_path, capsys):
    with criterion("C13 pipeline determinism (byte-identical JSON, < 1 s)"):
        argv = ["analyze", fixture_path, "--format", "json"]
        start = time.perf_counter()
        assert main(argv) == 0
        elapsed = time.perf_counter() - start
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second
        assert len(first) > 1000
        json.loads(first)  # well formed
        assert elapsed < 1.0, f"pipeline took {elapsed:.3f} s"
