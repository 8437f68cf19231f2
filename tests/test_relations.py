"""Exact metamorphic relations: a transformed input gives the mapped output, bit for bit.

A relation changes a record and says what that does to each command's
JSON payload. The related run must then exit with the same code, print
the same stderr, and print the payload that the relation's map carries
back onto the original run's, compared number for number by their text,
so a changed sign of zero or a last digit counts. No oracle is needed, so
the relations hold on any input, not only on pinned ones.

- **Index shift.** Adding c to every month changes nothing but the
  printed months. No statistic reads the month values: the trend design
  is [1, 1..n]. Only the POT observations print months; block maxima and
  residual rows print observation numbers.

Each relation runs on records of its own, drawn from a generator seeded by
its name: gapped rain-like amounts with ties and all-distinct Gumbel
values, from the digest corpus's generators, so a new relation moves no
existing case.
"""
import io
import json
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


def _shift_months(c: int):
    def transform(months, values):
        return [m + c for m in months], values
    return transform


def _unshift_pot(c: int):
    def restore(payload: dict) -> dict:
        pot = payload.get("pot", payload)
        if pot.get("provenance", {}).get("method") == "pot":
            for row in pot["observations"]:
                row[0] -= c
        return payload
    return restore


# (name, the record's transform of (months, values), the map that carries the
# related run's payload back onto the original run's)
RELATIONS = [
    (f"index-shift-{c}", _shift_months(c), _unshift_pot(c)) for c in (1, 1000, 10**9)
]


def _run(path: str, form: list[str], threshold: str) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    argv = [form[0], path, *(arg.format(threshold=threshold) for arg in form[1:])]
    with redirect_stdout(out), redirect_stderr(err):
        code = main([*argv, "--format", "json"])
    return code, out.getvalue(), err.getvalue()


def _payload(text: str):
    """The JSON payload with every float and constant kept as its text."""
    return json.loads(text, parse_float=str, parse_constant=str)


@pytest.mark.parametrize("name, transform, restore", RELATIONS, ids=[r[0] for r in RELATIONS])
def test_relation_holds_exactly(tmp_path, name, transform, restore):
    rng = random.Random(f"relations-{name}")
    for record in range(RECORDS_PER_RELATION):
        n = rng.randint(*N_RANGE)
        months = _months(rng, n, gapped=True)
        values = _values(rng, SHAPES[record % len(SHAPES)], n)
        threshold = repr(rng.choice(values))
        runs = []
        for record_months, record_values in ((months, values), transform(months, values)):
            # Both runs read one path, so the config block's input agrees.
            path = _write_series(tmp_path / "record.csv", record_months, record_values)
            runs.append([_run(path, form, threshold) for form in FORMS])
        for form, (code, out, err), (related_code, related_out, related_err) in zip(FORMS, *runs):
            case = (record, n, form)
            assert (related_code, related_err) == (code, err), case
            if out:
                assert restore(_payload(related_out)) == _payload(out), case
            else:
                assert related_out == "", case
