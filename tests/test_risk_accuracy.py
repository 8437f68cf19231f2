"""Risk-curve accuracy against a 40-digit oracle, and exact scale equivariance.

The accuracy gate takes the worst relative error of the frequencies on a
fixed corpus: the hazard and vulnerability files of the two
``risk_curve_*`` snapshot cases with their loss grids, three instances
shaped like the risk-grid benchmark, and the steps-and-flat-segments
instance of the kernel tests. Its bound is the worst case measured on the
kernel that took one ``math.log`` of ``x / theta`` per cell; a change to
the kernel may not raise it.

Frequencies below 2^-20 of the in-range total G_1 - G_n are left out.
There 1 - p is close to 0 while p is a double near 1, so the frequency
keeps only an absolute accuracy of a few ulps of the total: at a loss of
5000 on the snapshot files the frequency 1.29e-12 is 3e-7 off in
relative terms, and at a loss of 1e6 the exact 4.8e-79 prints as 0.
Those tail values are pinned bit for bit by the snapshots instead.
"""
import json
import math
from pathlib import Path

import numpy as np
import pytest

import mp_oracle
from riskseries.cli import parse_hazard_csv, parse_vulnerability_csv
from riskseries.evt_risk import HazardCurve, VulnerabilityPoint, risk_curve
from test_evt_risk import bench_shaped_instance

DATA_DIR = Path(__file__).parent / "data"

# Worst relative error of the corpus on the per-cell-log kernel: the
# bench-shaped instance of seed 1 at its top loss.
WORST_RELATIVE_ERROR = 9.170205673297828e-14
TAIL_FRACTION = 2.0 ** -20


def snapshot_instances():
    hazard = parse_hazard_csv(str(DATA_DIR / "hazard.csv"))
    vulnerability = parse_vulnerability_csv(str(DATA_DIR / "vulnerability.csv"), hazard)
    for case in ("risk_curve_losses", "risk_curve_loss_csv"):
        losses = json.loads((DATA_DIR / "snapshots" / f"{case}.json").read_text())["losses"]
        yield case, hazard, vulnerability, losses


def steps_instance():
    """Steps (beta = 0 at three points), a flat and two nearly flat segments."""
    rng = np.random.default_rng(41)
    s = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]
    g = [3.0, 3.0, 2.0, 2.0 * (1.0 - 1e-9), 1.5, 1.5 * (1.0 - 3e-12), 0.4]
    hazard = HazardCurve(tuple(zip(s, g)))
    covs = [0.4, 0.0, 0.7, 0.0, 1.1, 0.3, 0.0]
    vulnerability = tuple(
        VulnerabilityPoint(s=si, mean_loss=0.3 * si, cov=c) for si, c in zip(s, covs)
    )
    at_theta = [v.theta for v in vulnerability if v.beta == 0.0]
    nearby = [math.nextafter(t, 0.0) for t in at_theta] + [math.nextafter(t, 9.0) for t in at_theta]
    return hazard, vulnerability, at_theta + nearby + rng.uniform(0.0, 3.0, 60).tolist()


def corpus():
    yield from snapshot_instances()
    for seed, points, losses in ((1, 40, 75), (2, 75, 40), (3, 60, 50)):
        yield (f"bench{seed}", *bench_shaped_instance(seed, points, losses))
    yield ("steps", *steps_instance())


def oracle_rows(hazard, vulnerability):
    return hazard.points, [(v.s, v.mean_loss, v.cov) for v in vulnerability]


def test_risk_curve_frequencies_within_the_recorded_bound_of_a_40_digit_oracle():
    worst = (0.0, None)
    for name, hazard, vulnerability, losses in corpus():
        computed = risk_curve(losses, hazard, vulnerability).frequencies
        exact = mp_oracle.frequencies(losses, *oracle_rows(hazard, vulnerability))
        floor = TAIL_FRACTION * (hazard.g[0] - hazard.g[-1])
        for x, r, e in zip(losses, computed, exact):
            if e >= floor:
                worst = max(worst, (mp_oracle.relative_error(r, e), (name, x)))
    assert worst[0] <= WORST_RELATIVE_ERROR, worst


# Exact powers of two: scaled losses and medians keep their mantissas.
SCALES = list(range(-60, 61)) + [-300, 300]


def scaled(vulnerability, k):
    return tuple(
        VulnerabilityPoint(s=v.s, mean_loss=math.ldexp(v.mean_loss, k), cov=v.cov)
        for v in vulnerability
    )


def scaling_instance(name):
    if name == "steps":
        return steps_instance()
    if name == "bench1":
        hazard, vulnerability, grid = bench_shaped_instance(1, 40, 75)
        return hazard, vulnerability, [0.0, -0.0] + grid
    _, hazard, vulnerability, losses = next(c for c in snapshot_instances() if c[0] == name)
    # 1e-320 is subnormal, so scaling it down would round.
    return hazard, vulnerability, [x for x in losses if x == 0.0 or x >= 1e-300]


@pytest.mark.parametrize("name", ["risk_curve_losses", "risk_curve_loss_csv", "bench1", "steps"])
def test_risk_curve_is_exactly_scale_equivariant(name):
    hazard, vulnerability, losses = scaling_instance(name)
    frequencies = risk_curve(losses, hazard, vulnerability).frequencies
    assert any(r != 0.0 for r in frequencies)
    expected = [r.hex() for r in frequencies]
    for k in SCALES:
        curve = risk_curve([math.ldexp(x, k) for x in losses], hazard, scaled(vulnerability, k))
        assert [r.hex() for r in curve.frequencies] == expected, k
