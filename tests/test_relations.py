"""Exact metamorphic relations: a transformed input gives the mapped output, bit for bit.

A relation changes a record and says what that does to each command's
JSON payload. The related run must then exit with the same code, print
the same stderr (a threshold in it read as the run's own), and print the
payload that the relation's map carries back onto the original run's,
compared number for number by their text, so a changed sign of zero or a
last digit counts. No oracle is needed, so the relations hold on any
input, not only on pinned ones.

- **Index shift.** Adding c to every month changes nothing but the
  printed months. No statistic reads the month values: the trend design
  is [1, 1..n]. Only the POT observations print months; block maxima and
  residual rows print observation numbers.
- **Negation.** ``summarize`` and ``trend --mann-kendall`` of the negated
  record: the mean, the trend line, S and Z change sign (a Z of 0 keeps
  its +0.0), min and max swap with their signs changed, the decision
  swaps between increasing and decreasing, and the rest is unchanged.
- **Scaling by 2^k,** with ``--threshold`` scaled alike. Each field
  carries a power of the scale, declared once in ``POWERS``: its number
  is 2^(k * power) times the unscaled one. A field the table does not
  list fails the test. In band (|k| <= 20 on these records) the relation
  is exact but for ``KNOWN_SCALING_MISMATCHES``; out of band (k = 25 and
  k = -39) the set of skipped AR fits changes with k.

Each relation runs on records of its own, drawn from a generator seeded by
its name: gapped rain-like amounts with ties and all-distinct Gumbel
values, from the digest corpus's generators, so a new relation moves no
existing case.
"""
import io
import json
import math
import random
from contextlib import redirect_stderr, redirect_stdout

import pytest

from riskseries.cli import main
from test_text_digests import _months, _values, _write_series

RECORDS_PER_RELATION = 20
SHAPES = ("rain", "gumbel")  # rain amounts tie, Gumbel values are all distinct
N_RANGE = (7, 120)
# Each form's argv after the record's path; {threshold} is one of its values.
FORMS = [
    ["analyze"],
    ["analyze", "--threshold", "{threshold}"],
    ["summarize"],
    ["trend", "--mann-kendall"],
    ["ar"],
    ["residuals"],
    ["peaks", "--threshold", "{threshold}"],
    ["peaks", "--block-size", "4"],
]
NEGATION_FORMS = [["summarize"], ["trend", "--mann-kendall"]]

# The power of the scale that each payload field carries, by its key: a
# list's items take their key's power, and a power applies to floats only,
# so the months and observation numbers beside POT values stay as they are.
POWERS = {
    **dict.fromkeys([
        # counts, orders, flags and labels
        "schema_version", "n", "p", "df_regression", "df_residual", "selected_order",
        "max_lag", "block_size", "observation_id", "outliers", "outlier", "detrend",
        "zero_filled", "input", "decimal", "comparison", "method", "fitted_on", "term",
        "decision", "skipped",
        # pure numbers: Mann-Kendall, the lag correlations (keyed by their
        # series), the fit statistics, probabilities and every lag
        # coefficient's row and order-selection step
        "S", "var_S", "Z", "p_value", "alpha", "raw", "detrended", "r_multiple",
        "r_squared", "r_squared_adj", "f_stat", "significance_f", "estimate", "std_error",
        "t_stat", "ci_lower_95", "ci_upper_95", "coefficient", "z", "z_alpha",
        "standardized", "percentile", "outlier_threshold",
    ], 0),
    **dict.fromkeys([
        "mean", "std_dev", "min", "max", "intercept", "slope", "threshold", "observations",
        "std_error_regression", "regression_std_error", "scale", "y", "y_predicted",
        "residual",
    ], 1),
    **dict.fromkeys(
        ["variance", "total_ss", "regression_ss", "residual_ss", "regression_ms", "residual_ms"],
        2),
}
# The intercept's row is in the data's unit; its t statistic and p are not.
INTERCEPT_POWERS = {**POWERS, **dict.fromkeys(
    ["estimate", "std_error", "ci_lower_95", "ci_upper_95"], 1)}

# (relation, record, form, field) that differ in band. FOUND in CHANGES.md:
# libm's pow, which squares the deviations of the lag correlation and the fit
# sums, is not correctly rounded, so np.float_power(x * 2**k, 2.0) is not
# always 4**k * np.float_power(x, 2.0), where x * x always is.
KNOWN_SCALING_MISMATCHES = frozenset(
    ("scale-2^-11", 14, "analyze", f"ar.detrended.p1.anova.{field}")
    for field in ("regression_ss", "regression_ms", "f_stat"))


def _shift_months(c: int):
    def transform(months, values, threshold):
        return [m + c for m in months], values, threshold
    return transform


def _unshift_pot(c: int):
    def restore(payload: dict) -> dict:
        pot = payload.get("pot", payload)
        if pot.get("provenance", {}).get("method") == "pot":
            for row in pot["observations"]:
                row[0] -= c
        return payload
    return restore


def _negate_values(months, values, threshold):
    return months, [-v for v in values], threshold


def _negated(text: str) -> str:
    """A float's text with its sign changed, a zero's too: min and max are values."""
    return repr(-float(text))


SWAPPED_DECISIONS = {"increasing": "decreasing", "decreasing": "increasing"}


def _unnegate(payload: dict) -> dict:
    if "mean" in payload:  # summarize
        payload["mean"] = _negated(payload["mean"])
        payload["min"], payload["max"] = _negated(payload["max"]), _negated(payload["min"])
        return payload
    trend, mk = payload["trend"], payload["mann_kendall"]
    trend["intercept"], trend["slope"] = _negated(trend["intercept"]), _negated(trend["slope"])
    if "S" in mk:
        # Z is 0.0 whenever S is 0, whatever the record's sign.
        mk["S"], mk["Z"] = -mk["S"], _negated(mk["Z"]) if mk["S"] else mk["Z"]
        mk["decision"] = SWAPPED_DECISIONS.get(mk["decision"], mk["decision"])
    return payload


def _scale_values(k: int):
    def transform(months, values, threshold):
        return months, [math.ldexp(v, k) for v in values], repr(math.ldexp(float(threshold), k))
    return transform


def _scaled(value, k: int, powers: dict = POWERS, key: str = ""):
    """``value`` with each float of a field of power p multiplied by 2^(k * p)."""
    if isinstance(value, dict):
        powers = INTERCEPT_POWERS if value.get("term") == "intercept" else POWERS
        return {key: _scaled(item, k, powers, key) for key, item in value.items()}
    if isinstance(value, list):
        return [_scaled(item, k, powers, key) for item in value]
    power = powers[key]  # a field the table does not list fails here
    return repr(math.ldexp(float(value), k * power)) if power and isinstance(value, str) else value


def _scaling(k: int, *marks):
    name = f"scale-2^{k}"
    known = frozenset(case[1:] for case in KNOWN_SCALING_MISMATCHES if case[0] == name)
    return pytest.param(name, FORMS, _scale_values(k), lambda payload: _scaled(payload, -k),
                        known, id=name, marks=marks)


# Out of band, whether an AR fit is skipped as rank-deficient depends on the
# unit of the data: ROADMAP item 11 makes these pass.
OUT_OF_BAND = pytest.mark.xfail(strict=True, reason=(
    "item 11: from k = 25 up every AR fit is skipped near 'intercept', from k = -39 down "
    "near 'x1', so the set of skipped fits changes with the unit"))
# (name, the forms it runs, the record's transform of (months, values,
# threshold), the map that carries the related run's payload back onto the
# original run's, and the (record, form, field) known to differ)
RELATIONS = [
    *(pytest.param(f"index-shift-{c}", FORMS, _shift_months(c), _unshift_pot(c), frozenset(),
                   id=f"index-shift-{c}") for c in (1, 1000, 10**9)),
    pytest.param("negation", NEGATION_FORMS, _negate_values, _unnegate, frozenset(),
                 id="negation"),
    *(_scaling(k) for k in (1, -1, 5, -5, 11, -11, 20, -20)),
    *(_scaling(k, OUT_OF_BAND) for k in (25, -39)),
]


def _run(path: str, form: list[str], threshold: str) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    argv = [form[0], path, *(arg.format(threshold=threshold) for arg in form[1:])]
    with redirect_stdout(out), redirect_stderr(err):
        code = main([*argv, "--format", "json"])
    return code, out.getvalue(), err.getvalue().replace(threshold, "{threshold}")


def _payload(text: str):
    """The JSON payload with every float and constant kept as its text."""
    return json.loads(text, parse_float=str, parse_constant=str)


def _differences(related, original, field: tuple = ()):
    """The fields, as dotted paths, where two payloads differ."""
    if type(related) is type(original) is dict and related.keys() == original.keys():
        for key in original:
            yield from _differences(related[key], original[key], (*field, key))
    elif type(related) is type(original) is list and len(related) == len(original):
        for i, (item, original_item) in enumerate(zip(related, original)):
            yield from _differences(item, original_item, (*field, str(i)))
    elif related != original:
        yield ".".join(field)


@pytest.mark.parametrize("name, forms, transform, restore, known", RELATIONS)
def test_relation_holds_exactly(tmp_path, name, forms, transform, restore, known):
    rng = random.Random(f"relations-{name}")
    differences = set()
    for record in range(RECORDS_PER_RELATION):
        n = rng.randint(*N_RANGE)
        months = _months(rng, n, gapped=True)
        values = _values(rng, SHAPES[record % len(SHAPES)], n)
        threshold = repr(rng.choice(values))
        runs = []
        for record_months, record_values, record_threshold in (
                (months, values, threshold), transform(months, values, threshold)):
            # Both runs read one path, so the config block's input agrees.
            path = _write_series(tmp_path / "record.csv", record_months, record_values)
            runs.append([_run(path, form, record_threshold) for form in forms])
        for form, (code, out, err), (related_code, related_out, related_err) in zip(forms, *runs):
            case = (record, n, form)
            assert (related_code, related_err) == (code, err), case
            if out:
                differences.update(
                    (record, " ".join(form), field)
                    for field in _differences(restore(_payload(related_out)), _payload(out)))
            else:
                assert related_out == "", case
    assert differences == known
