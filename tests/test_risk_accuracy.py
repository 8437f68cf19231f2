"""Risk-curve accuracy against a 40-digit oracle, and exact scale equivariance.

The accuracy gate takes the worst relative error of the frequencies on a
fixed corpus: the hazard and vulnerability files of the two
``risk_curve_*`` snapshot cases with their loss grids, three instances
shaped like the risk-grid benchmark, and the steps-and-flat-segments
instance of the kernel tests. Its bound is the worst case measured on the
kernel that sums one exceedance probability per cell against non-negative
weights; a change to the kernel may not raise it.

Every frequency is judged, the far tail included. The kernel takes each
exceedance probability as erfc(+z / sqrt 2) / 2, never as 1 - p, so a
frequency keeps its relative accuracy however small it is: at a loss of
1e6 on the snapshot files the exact 4.8e-79 is computed, not 0. The
worst case of the corpus sits there.
"""
import json
import math
from pathlib import Path

import numpy as np
import pytest

import mp_oracle
import test_evt_risk
from riskseries._risk_commands import parse_hazard_csv, parse_vulnerability_csv
from riskseries.evt_risk import VulnerabilityCurve, risk_curve
from test_evt_risk import bench_shaped_instance

DATA_DIR = Path(__file__).parent / "data"

# Worst relative error of the corpus on the exceedance kernel: the
# loss-csv snapshot case at its loss of 1e6.
WORST_RELATIVE_ERROR = 1.767974625924585e-14


def snapshot_instances():
    hazard = parse_hazard_csv(str(DATA_DIR / "hazard.csv"))
    vulnerability = parse_vulnerability_csv(str(DATA_DIR / "vulnerability.csv"), hazard)
    for case in ("risk_curve_losses", "risk_curve_loss_csv"):
        losses = json.loads((DATA_DIR / "snapshots" / f"{case}.json").read_text())["losses"]
        yield case, hazard, vulnerability, losses


def steps_instance():
    return test_evt_risk.steps_instance(np.random.default_rng(41))


def corpus():
    yield from snapshot_instances()
    for seed, points, losses in ((1, 40, 75), (2, 75, 40), (3, 60, 50)):
        yield (f"bench{seed}", *bench_shaped_instance(seed, points, losses))
    yield ("steps", *steps_instance())


def oracle_rows(hazard, vulnerability):
    return (list(zip(hazard.s.tolist(), hazard.g.tolist())),
            list(zip(vulnerability.s.tolist(), vulnerability.mean_loss.tolist(),
                     vulnerability.cov.tolist())))


def test_risk_curve_frequencies_within_the_recorded_bound_of_a_40_digit_oracle():
    worst = (0.0, None)
    for name, hazard, vulnerability, losses in corpus():
        computed = risk_curve(losses, hazard, vulnerability).frequencies
        exact = mp_oracle.frequencies(losses, *oracle_rows(hazard, vulnerability))
        for x, r, e in zip(losses, computed, exact):
            worst = max(worst, (mp_oracle.relative_error(r, e), (name, x)))
    assert worst[0] <= WORST_RELATIVE_ERROR, worst


# Exact powers of two: scaled losses and medians keep their mantissas.
SCALES = list(range(-60, 61)) + [-300, 300]


def scaled(vulnerability, k):
    mean_loss = [math.ldexp(m, k) for m in vulnerability.mean_loss.tolist()]
    return VulnerabilityCurve(vulnerability.s, mean_loss, vulnerability.cov)


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
