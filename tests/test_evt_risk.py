import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy import integrate

from riskseries import evt_risk
from riskseries.errors import DataError, UsageError
from riskseries.evt_risk import (
    GevParams,
    HazardCurve,
    VulnerabilityPoint,
    build_segments,
    conditional_nonexceedance,
    gev_pdf,
    lognormal_params,
    risk_curve,
)


# ------------------------------------------------------------------- GEV

def test_gev_pdf_gumbel_at_location():
    assert gev_pdf(0.0, GevParams(0.0, 1.0, 0.0)) == pytest.approx(math.exp(-1.0), rel=1e-12)


def test_gev_pdf_outside_support_is_zero():
    assert gev_pdf(-2.5, GevParams(0.0, 1.0, 0.5)) == 0.0
    assert gev_pdf(4.0, GevParams(0.0, 1.0, -0.3)) == 0.0  # upper endpoint at 10/3
    assert gev_pdf(1e9, GevParams(0.0, 1.0, 0.0)) >= 0.0


def test_gev_pdf_normalizes(oracle_tol=1e-6):
    for xi in (-0.3, 0.0, 0.3):
        params = GevParams(0.0, 1.0, xi)
        if xi > 0:
            lower, upper = -1.0 / xi, math.inf
        elif xi < 0:
            lower, upper = -math.inf, -1.0 / xi
        else:
            lower, upper = -math.inf, math.inf
        total, _ = integrate.quad(lambda v: gev_pdf(v, params), lower, upper, limit=400)
        assert total == pytest.approx(1.0, abs=oracle_tol)


def test_gev_pdf_branch_continuity_near_zero_shape():
    gumbel = GevParams(0.5, 2.0, 0.0)
    for xi in (1e-9, -1e-9):
        nearly = GevParams(0.5, 2.0, xi)
        for x in (-3.0, -1.0, 0.0, 0.5, 2.0, 5.0, 10.0):
            a = gev_pdf(x, gumbel)
            b = gev_pdf(x, nearly)
            assert b == pytest.approx(a, rel=1e-6)


def test_gev_scale_must_be_positive():
    with pytest.raises(UsageError):
        GevParams(0.0, 0.0, 0.1)
    with pytest.raises(UsageError):
        GevParams(0.0, -1.0, 0.1)


# -------------------------------------------------------------- lognormal

def test_lognormal_params_trivial_and_derived():
    theta, beta = lognormal_params(5.0, 0.0)
    assert (theta, beta) == (5.0, 0.0)
    theta, beta = lognormal_params(2.0, math.sqrt(math.e - 1.0))
    assert beta == pytest.approx(1.0, rel=1e-12)
    assert theta == pytest.approx(2.0 / math.sqrt(math.e), rel=1e-12)
    with pytest.raises(UsageError):
        lognormal_params(0.0, 0.5)
    with pytest.raises(UsageError):
        lognormal_params(1.0, -0.1)


@pytest.mark.parametrize("mean, cov", [
    (1e-300, 1e150),  # the median mean / sqrt(1 + cov^2) underflows to 0
    (1.0, 1.4e154),  # cov^2 overflows, so the log-sd is inf (and the median 0)
    (1e300, 1e300),
], ids=["underflowing-median", "overflowing-log-sd", "both"])
def test_lognormal_params_reject_a_zero_median_or_an_infinite_log_sd(mean, cov):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(UsageError, match="^lognormal (median underflows|log-sd overflows)"):
            lognormal_params(mean, cov)
        with pytest.raises(UsageError):
            VulnerabilityPoint(s=1.0, mean_loss=mean, cov=cov)


def test_lognormal_params_keep_the_largest_finite_log_sd():
    theta, beta = lognormal_params(1.0, 1.3e154)  # cov^2 is finite
    assert theta > 0.0 and math.isfinite(beta)


def test_lognormal_mean_round_trip():
    rng = np.random.default_rng(17)
    for _ in range(50):
        mean = float(rng.uniform(0.01, 100.0))
        cov = float(rng.uniform(0.0, 3.0))
        theta, beta = lognormal_params(mean, cov)
        assert theta * math.exp(beta ** 2 / 2.0) == pytest.approx(mean, rel=1e-12)


def test_conditional_nonexceedance_basics():
    point = VulnerabilityPoint(s=1.0, mean_loss=0.4, cov=0.5)
    assert conditional_nonexceedance(point.theta, point) == pytest.approx(0.5, abs=1e-12)
    assert conditional_nonexceedance(0.0, point) == 0.0
    assert conditional_nonexceedance(1e-12, point) == pytest.approx(0.0, abs=1e-9)
    with pytest.raises(UsageError):
        conditional_nonexceedance(-1.0, point)


def test_conditional_nonexceedance_matches_quadrature():
    point = VulnerabilityPoint(s=1.0, mean_loss=0.4, cov=0.7)
    phi = lambda u: math.exp(-u * u / 2.0) / math.sqrt(2.0 * math.pi)
    for x in (0.05, 0.2, 0.4, 0.8, 2.0):
        z = math.log(x / point.theta) / point.beta
        expected, _ = integrate.quad(phi, -math.inf, z, limit=200)
        assert conditional_nonexceedance(x, point) == pytest.approx(expected, abs=1e-10)


def test_conditional_nonexceedance_monotone_and_scale_invariant():
    point = VulnerabilityPoint(s=1.0, mean_loss=1.0, cov=0.9)
    values = [conditional_nonexceedance(x, point) for x in np.linspace(0.0, 5.0, 60)]
    assert all(a <= b + 1e-15 for a, b in zip(values, values[1:]))
    scaled = VulnerabilityPoint(s=1.0, mean_loss=7.0, cov=0.9)  # theta scales by 7
    for x in (0.3, 1.0, 2.5):
        assert conditional_nonexceedance(x, point) == pytest.approx(
            conditional_nonexceedance(7.0 * x, scaled), rel=1e-12
        )


def test_deterministic_vulnerability_is_step():
    point = VulnerabilityPoint(s=1.0, mean_loss=0.5, cov=0.0)
    assert point.beta == 0.0 and point.theta == 0.5
    assert conditional_nonexceedance(0.49, point) == 0.0
    assert conditional_nonexceedance(0.5, point) == 1.0


def test_conditional_nonexceedance_of_an_underflowing_ratio_is_zero():
    point = VulnerabilityPoint(s=1.0, mean_loss=10.0, cov=0.5)
    assert 5e-324 / point.theta == 0.0  # math.log of it used to raise
    assert conditional_nonexceedance(5e-324, point) == 0.0
    hazard = HazardCurve(((1.0, 2.0), (2.0, 1.0)))
    vulnerability = (point, VulnerabilityPoint(s=2.0, mean_loss=12.0, cov=0.5))
    assert risk_curve([0.0, 5e-324], hazard, vulnerability).frequencies == (1.0, 1.0)


# ------------------------------------------------------------- risk curve

def make_instance(rng, n_points=5, flat_segment=False):
    s = np.sort(rng.uniform(0.5, 10.0, size=n_points))
    while len(np.unique(s)) < n_points:
        s = np.sort(rng.uniform(0.5, 10.0, size=n_points))
    g1 = rng.uniform(0.5, 5.0)
    decay = rng.uniform(0.2, 1.2)
    jitter = rng.uniform(0.8, 1.0, size=n_points).cumprod()
    g = g1 * np.exp(-decay * (s - s[0])) * jitter
    if flat_segment:
        g[2] = g[1]  # zero log-slope segment
    hazard = HazardCurve(tuple(zip(s.tolist(), g.tolist())))
    mean_loss = np.sort(rng.uniform(0.05, 2.0, size=n_points))
    cov = rng.uniform(0.1, 1.5, size=n_points)
    vulnerability = tuple(
        VulnerabilityPoint(s=float(si), mean_loss=float(m), cov=float(c))
        for si, m, c in zip(s, mean_loss, cov)
    )
    return hazard, vulnerability


def trapezoid_oracle(x, hazard, vulnerability, points=100_000):
    """Fine-grid trapezoid of (1 - P) * (-dG/ds) with the same interpolants."""
    s = np.asarray(hazard.s)
    g = np.asarray(hazard.g)
    p_knots = np.array([conditional_nonexceedance(x, v) for v in vulnerability])
    grid = np.linspace(s[0], s[-1], points)
    seg = np.clip(np.searchsorted(s, grid, side="right") - 1, 0, len(s) - 2)
    ds = s[seg + 1] - s[seg]
    with np.errstate(divide="ignore"):
        m = np.log(g[seg + 1] / g[seg]) / ds
    frac = (grid - s[seg]) / ds
    p_lin = p_knots[seg] + (p_knots[seg + 1] - p_knots[seg]) * frac
    neg_dg = -m * g[seg] * np.exp(m * (grid - s[seg]))
    return float(integrate.trapezoid((1.0 - p_lin) * neg_dg, grid))


def test_risk_curve_trivial_endpoints():
    rng = np.random.default_rng(23)
    hazard, vulnerability = make_instance(rng)
    curve = risk_curve([0.0, 1e9], hazard, vulnerability)
    assert curve.frequencies[0] == pytest.approx(hazard.g[0] - hazard.g[-1], rel=1e-12)
    assert curve.frequencies[1] == pytest.approx(0.0, abs=1e-12)


def test_risk_curve_matches_trapezoid_oracle():
    rng = np.random.default_rng(29)
    for trial in range(8):
        hazard, vulnerability = make_instance(rng, flat_segment=(trial % 3 == 0))
        losses = np.linspace(0.0, 3.0, 10)
        curve = risk_curve(losses.tolist(), hazard, vulnerability)
        for x, r in zip(curve.losses, curve.frequencies):
            oracle = trapezoid_oracle(x, hazard, vulnerability)
            assert r == pytest.approx(oracle, rel=5e-3, abs=1e-9)


def test_risk_curve_monotone_and_linear_in_g():
    rng = np.random.default_rng(31)
    hazard, vulnerability = make_instance(rng)
    losses = np.linspace(0.0, 4.0, 25).tolist()
    curve = risk_curve(losses, hazard, vulnerability)
    for a, b in zip(curve.frequencies, curve.frequencies[1:]):
        assert b <= a + 1e-12
    doubled = HazardCurve(tuple((s, 2.0 * g) for s, g in hazard.points))
    curve2 = risk_curve(losses, doubled, vulnerability)
    for r1, r2 in zip(curve.frequencies, curve2.frequencies):
        assert r2 == pytest.approx(2.0 * r1, rel=1e-12, abs=1e-15)


def test_segment_weights():
    rng = np.random.default_rng(37)
    hazard, vulnerability = make_instance(rng, n_points=7)
    a, b = build_segments(hazard, vulnerability)
    assert len(a) == len(b) == len(hazard) - 1
    assert all(a >= 0.0)
    total = math.fsum(a.tolist())
    assert total == pytest.approx(hazard.g[0] - hazard.g[-1], rel=1e-12)


def test_segment_whose_frequency_ratio_underflows_takes_a_difference_of_logs():
    # 1e-308 / 1e308 underflows to 0, where math.log raised a domain error.
    steep = HazardCurve(((1.0, 1e308), (2.0, 1e-308), (3.0, 5e-324)))
    vulnerability = tuple(VulnerabilityPoint(s=s, mean_loss=s, cov=0.5) for s in (1.0, 2.0, 3.0))
    a, b = build_segments(steep, vulnerability)
    t = math.log(1e-308) - math.log(1e308)
    assert a[0] == 1e308 - 1e-308
    assert b[0] == 1e308 * (math.expm1(t) / t - math.exp(t))
    # A ratio that does not underflow, even a subnormal one, keeps t = log(ratio);
    # for this pair the difference of logs rounds otherwise.
    tiny = HazardCurve(((1.0, 2.680632529446252e+270), (2.0, 1.0965714741895922e-39),
                        (3.0, 1e-40)))
    for hazard in (steep, tiny):
        _, b = build_segments(hazard, vulnerability)
        for i, (g_prev, g_cur) in enumerate(zip(hazard.g, hazard.g[1:])):
            if g_cur / g_prev > 0.0:
                t = math.log(g_cur / g_prev)
                assert b[i] == g_prev * (math.expm1(t) / t - math.exp(t))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        frequencies = risk_curve([0.0, 1.0, 10.0, 1e300], steep, vulnerability).frequencies
    assert all(map(math.isfinite, frequencies))
    assert frequencies[0] == 1e308 - 5e-324
    assert list(frequencies) == sorted(frequencies, reverse=True)


def test_flat_segment_contributes_nothing():
    hazard = HazardCurve(((1.0, 2.0), (2.0, 2.0), (3.0, 1.0)))
    vulnerability = tuple(
        VulnerabilityPoint(s=s, mean_loss=0.5 + 0.1 * s, cov=0.4) for s in (1.0, 2.0, 3.0)
    )
    a, _ = build_segments(hazard, vulnerability)
    assert a[0] == 0.0
    (with_flat,) = risk_curve([0.4], hazard, vulnerability).frequencies
    without = HazardCurve(hazard.points[1:])
    (after_flat,) = risk_curve([0.4], without, vulnerability[1:]).frequencies
    assert with_flat == pytest.approx(after_flat, abs=1e-15)
    # near-flat segment goes through the series branch and stays consistent
    almost = HazardCurve(((1.0, 2.0), (2.0, 2.0 * (1.0 - 1e-9)), (3.0, 1.0)))
    oracle = trapezoid_oracle(0.4, almost, vulnerability)
    (closed,) = risk_curve([0.4], almost, vulnerability).frequencies
    assert closed == pytest.approx(oracle, rel=5e-3, abs=1e-9)


def test_validation_errors():
    good = ((1.0, 2.0), (2.0, 1.0))
    vulnerability = (
        VulnerabilityPoint(s=1.0, mean_loss=0.5, cov=0.3),
        VulnerabilityPoint(s=2.0, mean_loss=0.7, cov=0.3),
    )
    with pytest.raises(UsageError):
        risk_curve([1.0], HazardCurve(good), vulnerability[:1])  # misaligned count
    misaligned = (
        VulnerabilityPoint(s=1.0, mean_loss=0.5, cov=0.3),
        VulnerabilityPoint(s=2.5, mean_loss=0.7, cov=0.3),
    )
    with pytest.raises(UsageError):
        risk_curve([1.0], HazardCurve(good), misaligned)
    with pytest.raises(UsageError):
        risk_curve([1.0], HazardCurve(((1.0, 2.0),)), vulnerability[:1])  # n < 2
    with pytest.raises(DataError):
        HazardCurve(((1.0, 2.0), (2.0, 0.0)))  # non-positive G
    with pytest.raises(DataError):
        HazardCurve(((1.0, 2.0), (2.0, 3.0)))  # increasing G
    with pytest.raises(DataError):
        HazardCurve(((2.0, 2.0), (1.0, 1.0)))  # s not increasing
    with pytest.raises(UsageError):
        risk_curve([-1.0], HazardCurve(good), vulnerability)  # negative loss
    with pytest.raises(UsageError, match=r"got -2\.0$"):
        risk_curve([0.5, -2.0, -3.0], HazardCurve(good), vulnerability)  # the first one


# ------------------------------------------- blocked kernel vs the loop

EDGE_LOSSES = [0.0, -0.0, 1e-300, 5e-324, 1.7e308]


def per_segment_risk_curve(losses, hazard, vulnerability):
    """The per-segment loop risk_curve was before it evaluated in blocks."""
    a, b = build_segments(hazard, vulnerability)
    segments = list(zip(a.tolist(), b.tolist(), vulnerability, vulnerability[1:]))
    frequencies = []
    for x in losses:
        total = math.fsum(
            (1.0 - conditional_nonexceedance(x, lower)) * a_i
            - (conditional_nonexceedance(x, upper)
               - conditional_nonexceedance(x, lower)) * b_i
            for a_i, b_i, lower, upper in segments
        )
        frequencies.append(max(total, 0.0))
    return frequencies


def bench_shaped_instance(seed, points, losses):
    """Hazard, vulnerability and loss grid shaped like the risk-grid benchmark."""
    rng = np.random.default_rng(seed)
    s = np.linspace(0.5, 10.0, points) + rng.uniform(0.0, 0.4, points) * (9.5 / points)
    g = rng.uniform(0.5, 5.0) * np.exp(-rng.uniform(0.2, 1.2) * (s - s[0]))
    g *= rng.uniform(0.995, 1.0, points).cumprod()
    mean = np.sort(rng.uniform(0.05, 2.0, points))
    cov = rng.uniform(0.1, 1.5, points)
    hazard = HazardCurve(tuple(zip(s.tolist(), g.tolist())))
    vulnerability = tuple(
        VulnerabilityPoint(s=a, mean_loss=b, cov=c)
        for a, b, c in zip(s.tolist(), mean.tolist(), cov.tolist())
    )
    grid = np.linspace(0.0, 3.0 * float(mean.max()), losses).tolist()
    return hazard, vulnerability, grid


def assert_bit_identical(losses, hazard, vulnerability):
    curve = risk_curve(losses, hazard, vulnerability)
    expected = per_segment_risk_curve(curve.losses, hazard, vulnerability)
    assert [r.hex() for r in curve.frequencies] == [r.hex() for r in expected]


@pytest.mark.parametrize("points, n_losses", [(200, 300), (300, 200)])
def test_risk_curve_matches_per_segment_loop_on_bench_shapes(points, n_losses):
    for seed in (1, 2):
        hazard, vulnerability, grid = bench_shaped_instance(seed, points, n_losses)
        assert_bit_identical(EDGE_LOSSES + grid, hazard, vulnerability)


def test_risk_curve_matches_per_segment_loop_on_a_long_two_point_grid():
    # One segment per loss, so a cell whose log or erfc is off by one ulp
    # shows in that loss's frequency instead of vanishing in a long sum.
    hazard, vulnerability, grid = bench_shaped_instance(6, 2, 20_000)
    assert_bit_identical(EDGE_LOSSES + grid, hazard, vulnerability)


def test_risk_curve_matches_per_segment_loop_across_block_edges():
    wide = evt_risk._BLOCK_CELLS + 904  # one loss fills more than a block
    hazard, vulnerability, grid = bench_shaped_instance(3, wide, 7)
    assert_bit_identical(EDGE_LOSSES + grid, hazard, vulnerability)

    hazard, vulnerability, grid = bench_shaped_instance(4, 300, 204)
    losses = EDGE_LOSSES + grid
    assert len(losses) % (evt_risk._BLOCK_CELLS // 300) != 0  # a ragged last block
    assert_bit_identical(losses, hazard, vulnerability)


def test_risk_curve_matches_per_segment_loop_on_steps_and_flat_segments():
    rng = np.random.default_rng(41)
    s = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]
    g = [3.0, 3.0, 2.0, 2.0 * (1.0 - 1e-9), 1.5, 1.5 * (1.0 - 3e-12), 0.4]
    hazard = HazardCurve(tuple(zip(s, g)))
    covs = [0.4, 0.0, 0.7, 0.0, 1.1, 0.3, 0.0]  # beta = 0 at three points
    vulnerability = tuple(
        VulnerabilityPoint(s=si, mean_loss=0.3 * si, cov=c) for si, c in zip(s, covs)
    )
    at_theta = [v.theta for v in vulnerability if v.beta == 0.0]
    nearby = [math.nextafter(t, 0.0) for t in at_theta] + [math.nextafter(t, 9.0) for t in at_theta]
    losses = EDGE_LOSSES + at_theta + nearby + rng.uniform(0.0, 3.0, 60).tolist()
    assert_bit_identical(losses, hazard, vulnerability)
    for trial in range(6):
        hazard, vulnerability = make_instance(rng, n_points=6, flat_segment=True)
        assert_bit_identical(EDGE_LOSSES + np.linspace(0.0, 3.0, 17).tolist(),
                             hazard, vulnerability)


def test_risk_curve_of_an_overflowing_ratio_raises_no_warning():
    hazard = HazardCurve(((1.0, 2.0), (2.0, 1.0), (3.0, 0.5)))
    vulnerability = tuple(
        VulnerabilityPoint(s=s, mean_loss=m, cov=c)
        for s, m, c in ((1.0, 0.2, 0.5), (2.0, 0.5, 0.5), (3.0, 0.9, 0.0))
    )
    assert 1.7e308 / vulnerability[0].theta == math.inf  # theta < 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        curve = risk_curve(EDGE_LOSSES + [0.5, math.inf], hazard, vulnerability)
    assert curve.frequencies[4] == 0.0 and curve.frequencies[-1] == 0.0


def test_risk_curve_memory_stays_within_blocks():
    hazard, vulnerability, losses = bench_shaped_instance(5, 2000, 2000)
    tracemalloc.start()
    try:
        risk_curve(losses, hazard, vulnerability)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20  # a full 2000 x 2000 float matrix alone is 32 MB

