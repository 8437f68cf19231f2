import math
import sys
import tracemalloc
import types
import warnings

import numpy as np
import pytest
from scipy import integrate

from riskseries import evt_risk
from riskseries.errors import DataError, UsageError
from riskseries.evt_risk import (
    GevParams,
    HazardCurve,
    VulnerabilityCurve,
    VulnerabilityPoint,
    build_segments,
    conditional_exceedance,
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


@pytest.mark.filterwarnings("error")
def test_an_infinite_mean_loss_is_rejected_in_point_and_column_form():
    finite = "^mean loss must be finite, got inf$"
    with pytest.raises(UsageError, match=finite):
        lognormal_params(math.inf, 0.5)
    with pytest.raises(UsageError, match=finite):
        VulnerabilityPoint(s=1.0, mean_loss=math.inf, cov=0.5)
    with pytest.raises(UsageError, match=finite):
        VulnerabilityCurve(s=[1.0, 2.0], mean_loss=[0.5, math.inf], cov=[0.5, 0.5])
    # A point rejected for another reason keeps that reason's message.
    with pytest.raises(UsageError, match="^coefficient of variation must be >= 0, got -1.0$"):
        lognormal_params(math.inf, -1.0)


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
    assert conditional_exceedance(point.theta, point) == pytest.approx(0.5, abs=1e-12)
    assert conditional_exceedance(0.0, point) == 1.0
    for x in (0.05, 0.4, 2.0):
        assert conditional_exceedance(x, point) == pytest.approx(
            1.0 - conditional_nonexceedance(x, point), abs=1e-15
        )
    # Far above the median, 1 - P cancels to 0 and the exceedance does not.
    assert conditional_nonexceedance(1e6, point) == 1.0
    assert 0.0 < conditional_exceedance(1e6, point) < 1e-200
    with pytest.raises(UsageError):
        conditional_exceedance(-1.0, point)


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
    assert conditional_exceedance(0.49, point) == 1.0
    assert conditional_exceedance(0.5, point) == 0.0


def test_conditional_nonexceedance_of_an_underflowing_ratio_is_zero():
    point = VulnerabilityPoint(s=1.0, mean_loss=10.0, cov=0.5)
    assert 5e-324 / point.theta == 0.0  # math.log of it used to raise
    assert conditional_nonexceedance(5e-324, point) == 0.0
    assert conditional_exceedance(5e-324, point) == 1.0
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
        assert b <= a
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


def test_flat_segment_weight_b_is_positive_zero():
    hazard = HazardCurve(((1, 2), (2, 2), (3, 1)))
    vulnerability = tuple(VulnerabilityPoint(s=s, mean_loss=s, cov=0.5) for s in (1.0, 2.0, 3.0))
    _, b = build_segments(hazard, vulnerability)
    assert b[0] == 0.0 and math.copysign(1.0, b[0]) == 1.0
    assert b[1] > 0.0


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
    with pytest.raises(UsageError, match=r"^loss must be non-negative, got nan$"):
        risk_curve([math.nan, 0.5], HazardCurve(good), vulnerability)
    for scalar in (conditional_nonexceedance, conditional_exceedance):
        with pytest.raises(UsageError, match=r"got nan$"):
            scalar(math.nan, vulnerability[0])
    with pytest.raises(UsageError, match=r"^coefficient of variation must be >= 0, got nan$"):
        VulnerabilityPoint(s=1.0, mean_loss=0.5, cov=math.nan)


# ------------------------------------- blocked kernel vs the scalar cells

EDGE_LOSSES = [0.0, -0.0, 1e-300, 5e-324, 1.7e308]


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


def steps_instance(rng):
    """Steps (beta = 0 at three points), a flat and two nearly flat segments."""
    s = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]
    g = [3.0, 3.0, 2.0, 2.0 * (1.0 - 1e-9), 1.5, 1.5 * (1.0 - 3e-12), 0.4]
    hazard = HazardCurve(tuple(zip(s, g)))
    covs = [0.4, 0.0, 0.7, 0.0, 1.1, 0.3, 0.0]  # beta = 0 at three points
    vulnerability = tuple(
        VulnerabilityPoint(s=si, mean_loss=0.3 * si, cov=c) for si, c in zip(s, covs)
    )
    at_theta = [v.theta for v in vulnerability if v.beta == 0.0]
    nearby = [math.nextafter(t, 0.0) for t in at_theta] + [math.nextafter(t, 9.0) for t in at_theta]
    return hazard, vulnerability, at_theta + nearby + rng.uniform(0.0, 3.0, 60).tolist()


def assert_cells_match_the_scalar(monkeypatch, losses, hazard, vulnerability):
    """Every q cell risk_curve sums equals conditional_exceedance, bit for bit."""
    blocks = []

    def recording(x, *columns):
        q = exceedance_block(x, *columns)
        blocks.append((x[:, 0].tolist(), q.tolist()))
        return q

    exceedance_block = evt_risk._exceedance_block
    with monkeypatch.context() as patch:
        patch.setattr(evt_risk, "_exceedance_block", recording)
        curve = risk_curve(losses, hazard, vulnerability)
    assert [x for xs, _ in blocks for x in xs] == list(curve.losses)
    for xs, q in blocks:
        expected = [[conditional_exceedance(x, point).hex() for point in vulnerability]
                    for x in xs]
        assert [[cell.hex() for cell in row] for row in q] == expected


@pytest.mark.parametrize("points, n_losses", [(200, 300), (300, 200)])
def test_risk_curve_cells_match_conditional_exceedance_on_bench_shapes(
    monkeypatch, points, n_losses
):
    for seed in (1, 2):
        hazard, vulnerability, grid = bench_shaped_instance(seed, points, n_losses)
        assert_cells_match_the_scalar(monkeypatch, EDGE_LOSSES + grid, hazard, vulnerability)


def test_risk_curve_cells_match_conditional_exceedance_on_a_long_two_point_grid(monkeypatch):
    hazard, vulnerability, grid = bench_shaped_instance(6, 2, 20_000)
    assert_cells_match_the_scalar(monkeypatch, EDGE_LOSSES + grid, hazard, vulnerability)


def test_risk_curve_cells_match_conditional_exceedance_across_block_edges(monkeypatch):
    wide = evt_risk._BLOCK_CELLS + 904  # one loss fills more than a block
    hazard, vulnerability, grid = bench_shaped_instance(3, wide, 7)
    assert_cells_match_the_scalar(monkeypatch, EDGE_LOSSES + grid, hazard, vulnerability)

    hazard, vulnerability, grid = bench_shaped_instance(4, 300, 204)
    losses = EDGE_LOSSES + grid
    assert len(losses) % (evt_risk._BLOCK_CELLS // 300) != 0  # a ragged last block
    assert_cells_match_the_scalar(monkeypatch, losses, hazard, vulnerability)


def test_risk_curve_cells_match_conditional_exceedance_on_steps_and_flat_segments(monkeypatch):
    rng = np.random.default_rng(41)
    hazard, vulnerability, losses = steps_instance(rng)
    assert_cells_match_the_scalar(monkeypatch, EDGE_LOSSES + losses, hazard, vulnerability)
    for trial in range(6):
        hazard, vulnerability = make_instance(rng, n_points=6, flat_segment=True)
        losses = EDGE_LOSSES + np.linspace(0.0, 3.0, 17).tolist()
        assert_cells_match_the_scalar(monkeypatch, losses, hazard, vulnerability)


@pytest.mark.parametrize("block_cells", [1, 64, evt_risk._BLOCK_CELLS, 2**22])
def test_risk_curve_does_not_depend_on_the_block_size(monkeypatch, block_cells):
    instances = [
        bench_shaped_instance(4, 300, 204),
        bench_shaped_instance(3, evt_risk._BLOCK_CELLS + 904, 7),
        bench_shaped_instance(6, 2, 500),
        steps_instance(np.random.default_rng(41)),
    ]
    expected = [[r.hex() for r in risk_curve(EDGE_LOSSES + grid, hazard, vulnerability).frequencies]
                for hazard, vulnerability, grid in instances]
    monkeypatch.setattr(evt_risk, "_BLOCK_CELLS", block_cells)
    for (hazard, vulnerability, grid), want in zip(instances, expected):
        frequencies = risk_curve(EDGE_LOSSES + grid, hazard, vulnerability).frequencies
        assert [r.hex() for r in frequencies] == want


def test_risk_curve_never_rises_with_the_loss():
    # Medians scaled by up to 2^+-900, steps, flat segments, and every
    # loss beside its next double: each q cell falls as the loss grows and
    # every folded weight is >= 0, so no frequency may rise.
    rng = np.random.default_rng(7)
    for trial in range(400):
        n = int(rng.integers(2, 9))
        s = np.cumsum(rng.uniform(0.1, 2.0, n))
        fall = np.where(rng.random(n) < 0.2, 1.0, rng.uniform(0.05, 1.0, n))
        fall[0] = 1.0
        g = rng.uniform(0.5, 5.0) * fall.cumprod()
        k = int(rng.integers(-900, 901))
        mean = np.ldexp(np.sort(rng.uniform(0.05, 2.0, n)), k)
        cov = np.where(rng.random(n) < 0.2, 0.0, rng.uniform(0.05, 2.0, n))
        hazard = HazardCurve(tuple(zip(s.tolist(), g.tolist())))
        vulnerability = tuple(
            VulnerabilityPoint(s=a, mean_loss=b, cov=c)
            for a, b, c in zip(s.tolist(), mean.tolist(), cov.tolist())
        )
        base = np.ldexp(rng.uniform(0.0, 6.0, 12), k).tolist()
        base += [v.theta for v in vulnerability] + [0.0]
        losses = sorted(base + [math.nextafter(x, math.inf) for x in base])
        frequencies = risk_curve(losses, hazard, vulnerability).frequencies
        assert all(r >= 0.0 and math.copysign(1.0, r) == 1.0 for r in frequencies), trial
        assert all(b <= a for a, b in zip(frequencies, frequencies[1:])), trial


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


def test_risk_curve_takes_one_log_per_loss_and_per_point(monkeypatch):
    calls = []

    def counting_log(value):
        calls.append(value)
        return math.log(value)

    counting_math = types.SimpleNamespace(**vars(math))
    counting_math.log = counting_log
    monkeypatch.setattr(evt_risk, "math", counting_math)
    hazard, vulnerability, grid = bench_shaped_instance(7, 60, 90)
    risk_curve(grid, hazard, vulnerability)
    # One per loss mantissa, one per median mantissa, one per segment's log-slope.
    assert len(calls) == len(grid) + len(hazard) + (len(hazard) - 1)


def test_risk_curve_memory_stays_within_blocks():
    hazard, vulnerability, losses = bench_shaped_instance(5, 2000, 2000)
    tracemalloc.start()
    try:
        risk_curve(losses, hazard, vulnerability)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20  # a full 2000 x 2000 float matrix alone is 32 MB



# ------------------------------------------------- the vulnerability curve

def largest_accepted_cov():
    """The largest CoV whose square is finite, so its log-sd is too."""
    cov = math.sqrt(sys.float_info.max)
    while cov * cov == math.inf:
        cov = math.nextafter(cov, 0.0)
    return cov


def smallest_accepted_mean(cov):
    """The smallest mean loss whose lognormal median does not underflow at ``cov``."""
    mean = math.ldexp(math.sqrt(1.0 + cov * cov), -1075)
    while mean / math.sqrt(1.0 + cov * cov) == 0.0:
        mean = math.nextafter(mean, math.inf)
    while math.nextafter(mean, 0.0) / math.sqrt(1.0 + cov * cov) != 0.0:
        mean = math.nextafter(mean, 0.0)
    return mean


def test_the_largest_accepted_cov_has_a_log_sd_below_26_65():
    cov = largest_accepted_cov()
    assert 1.34e154 < cov < 1.35e154
    beta = lognormal_params(1.0, cov)[1]
    assert beta < 26.65
    # A ratio that underflows has a log below -1075 ln 2, where erfc is exactly 2.
    assert -1075 * math.log(2.0) / beta / math.sqrt(2.0) < -19.7
    assert math.erfc(-19.7) == 2.0
    with pytest.raises(UsageError, match="log-sd overflows"):
        lognormal_params(1.0, math.nextafter(cov, math.inf))


def test_losses_certainly_exceeded_need_no_mask(monkeypatch):
    """0, -0 and losses whose ratio to theta underflows reach q = 1 through erfc.

    Medians run up to 7.5e145 (mean 1e300 at the largest accepted CoV), so
    5e-324 and 1e-300 over many of them underflow to 0. Every cell must be
    exactly 1.0 and equal the scalar conditional_exceedance, and the step
    columns (CoV 0) still give x < theta.
    """
    cov_max = largest_accepted_cov()
    rows = ([(1.0, 0.5), (1e10, 0.5), (1e100, 0.5), (1e300, 0.5)]
            + [(1e160, cov_max), (1e200, cov_max), (1e300, cov_max)]
            + [(1e-299, 0.0), (1e300, 0.0)])
    s = [float(i + 1) for i in range(len(rows))]
    vulnerability = tuple(VulnerabilityPoint(s=a, mean_loss=m, cov=c)
                          for a, (m, c) in zip(s, rows))
    hazard = HazardCurve(tuple(zip(s, [2.0 ** -i for i in range(len(rows))])))
    losses = [0.0, -0.0, 5e-324, 1e-300]
    assert any(x > 0.0 and x / v.theta == 0.0 for x in losses for v in vulnerability)
    assert max(v.theta for v in vulnerability if v.beta > 0.0) > 7.4e145

    blocks = []

    def recording(x, *columns):
        q = exceedance_block(x, *columns)
        blocks.append(q.copy())
        return q

    exceedance_block = evt_risk._exceedance_block
    monkeypatch.setattr(evt_risk, "_exceedance_block", recording)
    risk_curve(losses, hazard, vulnerability)
    q = np.concatenate(blocks)
    assert q.shape == (len(losses), len(vulnerability))
    assert (q == 1.0).all()
    for x, row in zip(losses, q.tolist()):
        assert row == [conditional_exceedance(x, v) for v in vulnerability]

    # The step columns, whose medians are 1e-299 and 1e300, around each median.
    blocks.clear()
    steps = [math.nextafter(1e-299, 0.0), 1e-299, math.nextafter(1e300, 0.0), 1e300, 1.7e308]
    risk_curve(steps, hazard, vulnerability)
    q = np.concatenate(blocks)
    for x, row in zip(steps, q.tolist()):
        assert row[-2:] == [float(x < v.theta) for v in vulnerability[-2:]]
        assert row == [conditional_exceedance(x, v) for v in vulnerability]
    assert q[:, -2:].tolist() == [[1.0, 1.0], [0.0, 1.0], [0.0, 1.0], [0.0, 0.0], [0.0, 0.0]]


def seeded_vulnerability_rows(seed, n):
    """(mean_loss, cov) rows of every kind a curve accepts, edge cases first."""
    rng = np.random.default_rng(seed)
    cov_max = largest_accepted_cov()
    rows = [(0.5, 0.0), (0.5, 1e-8), (2.0, cov_max), (1e300, cov_max), (5e-324, 0.0),
            (smallest_accepted_mean(1e150), 1e150), (smallest_accepted_mean(cov_max), cov_max),
            (smallest_accepted_mean(3.0), 3.0)]
    means = 10.0 ** rng.uniform(-300.0, 300.0, n)
    covs = np.where(rng.random(n) < 0.2, 0.0, 10.0 ** rng.uniform(-10.0, 154.0, n))
    for mean, cov in zip(means.tolist(), covs.tolist()):
        try:
            lognormal_params(mean, cov)
        except UsageError:
            continue
        rows.append((mean, cov))
    return rows


def test_curve_columns_equal_lognormal_params_bit_for_bit():
    rows = seeded_vulnerability_rows(1807, 3000)
    assert len(rows) > 2000
    means, covs = zip(*rows)
    curve = VulnerabilityCurve(s=np.arange(len(rows), dtype=float), mean_loss=means, cov=covs)
    expected = [tuple(x.hex() for x in lognormal_params(m, c)) for m, c in rows]
    assert list(zip(map(float.hex, curve.theta.tolist()),
                    map(float.hex, curve.beta.tolist()))) == expected
    assert [(c.hex(), m.hex()) for m, c in rows] == list(
        zip(map(float.hex, curve.cov.tolist()), map(float.hex, curve.mean_loss.tolist())))


def test_curve_columns_are_read_only_float64_copies():
    s, mean, cov = [1.0, 2.0], [0.5, 0.7], np.array([0.3, 0.0])
    curve = VulnerabilityCurve(s, mean, cov)
    cov[0] = 9.0
    for name in ("s", "mean_loss", "cov", "theta", "beta"):
        column = getattr(curve, name)
        assert column.dtype == np.float64 and not column.flags.writeable, name
    assert curve.cov.tolist() == [0.3, 0.0]
    assert len(curve) == 2
    assert [(p.s, p.mean_loss, p.cov) for p in curve] == [(1.0, 0.5, 0.3), (2.0, 0.7, 0.0)]
    assert VulnerabilityCurve.of(curve) is curve
    with pytest.raises(UsageError, match="one length"):
        VulnerabilityCurve([1.0, 2.0], [0.5], [0.3, 0.3])


BAD_ROWS = [(0.0, 0.5), (-1.0, 0.5), (math.nan, 0.5), (0.5, -0.3), (0.5, math.nan),
            (0.5, -math.inf), (1.0, 1.4e154), (math.inf, 1e300), (math.inf, 0.5),
            (1e-300, 1e150), (math.nextafter(smallest_accepted_mean(1e150), 0.0), 1e150)]


@pytest.mark.parametrize("bad", BAD_ROWS, ids=[f"{m!r},{c!r}" for m, c in BAD_ROWS])
@pytest.mark.filterwarnings("error")
def test_a_bad_curve_raises_what_its_first_bad_point_raises(bad):
    rows = seeded_vulnerability_rows(23, 40)
    for position in (0, 7, len(rows)):
        # A second bad row after the first must not be the one reported.
        placed = rows[:position] + [bad] + rows[position:] + [(0.0, -1.0)]
        with pytest.raises(UsageError) as from_point:
            for m, c in placed:
                VulnerabilityPoint(s=1.0, mean_loss=m, cov=c)
        means, covs = zip(*placed)
        with pytest.raises(UsageError) as from_curve:
            VulnerabilityCurve(s=[0.0] * len(placed), mean_loss=means, cov=covs)
        assert str(from_curve.value) == str(from_point.value)


def test_risk_curve_takes_a_curve_or_its_points_alike():
    hazard, points, grid = bench_shaped_instance(9, 50, 40)
    curve = VulnerabilityCurve.of(points)
    assert list(curve) == list(points)
    for a, b in zip(build_segments(hazard, curve), build_segments(hazard, points)):
        assert a.tolist() == b.tolist()
    assert risk_curve(EDGE_LOSSES + grid, hazard, curve) == risk_curve(
        EDGE_LOSSES + grid, hazard, points)


def test_hazard_columns_are_taken_once():
    hazard = HazardCurve(((1, 2), (2.0, 1.5), (3.0, 0.5)))
    assert hazard.s == (1.0, 2.0, 3.0) and hazard.g == (2.0, 1.5, 0.5)
    assert hazard.s is hazard.s and hazard.g is hazard.g
    assert HazardCurve(()).s == HazardCurve(()).g == ()
