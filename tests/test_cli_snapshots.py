"""Byte-for-byte snapshots of CLI output.

Each case runs one command, most of them on the bundled case study
``data/extreme_precipitation.csv``; ``gev-pdf`` takes only flags, and
``risk-curve`` reads the small ``data/hazard.csv``,
``data/vulnerability.csv`` and ``data/losses.csv``. Its stdout, with the
absolute case-study path replaced by ``<INPUT>``, is compared to
``data/snapshots/<case>.<format>``. A case that exits non-zero also pins
its stderr in ``<case>.<format>.stderr``. Every printed float is
covered, down to the last digit.

A seeded 2,000-value daily record guards the writers beyond the case
study's 29 residual rows. Its ``analyze`` and ``residuals --lag 2``
outputs run to hundreds of kilobytes, so only their length and sha256
are kept, in ``data/snapshots/seeded_record.json``; the digest corpus
(``test_text_digests.py``) also runs this record, with generated flags. The
same generator, at 1,000 and 8,000 values, and an all-distinct record beside
it, bound the Python calls per added value of every series command in both
formats.

To regenerate after a deliberate change of output:

    PYTHONPATH=src python tests/test_cli_snapshots.py
"""
import hashlib
import io
import json
import random
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from riskseries import dist
from riskseries.cli import EXIT_OK, EXIT_USAGE, main

DATA_DIR = Path(__file__).parent / "data"
SNAPSHOT_DIR = DATA_DIR / "snapshots"
INPUT = DATA_DIR / "extreme_precipitation.csv"
PLACEHOLDER = "<INPUT>"
RISK_FILES = [
    "--hazard", DATA_DIR / "hazard.csv", "--vulnerability", DATA_DIR / "vulnerability.csv",
]

# (case name, command and the flags after the case-study path, expected exit code)
CASE_STUDY_COMMANDS = [
    ("analyze", ["analyze"], EXIT_OK),
    ("analyze_threshold150", ["analyze", "--threshold", "150"], EXIT_OK),
    # Three events: Mann-Kendall, both lag correlations, every AR order,
    # both order selections and the residuals are skipped.
    ("analyze_threshold850", ["analyze", "--threshold", "850"], EXIT_OK),
    # Raw selection keeps p=1 after two drops; detrended keeps p=3 at once.
    ("analyze_alpha03", ["analyze", "--alpha", "0.3"], EXIT_OK),
    ("analyze_no_detrend", ["analyze", "--no-detrend"], EXIT_OK),
    ("peaks_threshold150", ["peaks", "--threshold", "150"], EXIT_OK),
    # The record's months jump, so zero-filling it is refused.
    ("peaks_threshold150_zerofill", ["peaks", "--threshold", "150", "--zero-fill"], EXIT_USAGE),
    ("peaks_block4", ["peaks", "--block-size", "4"], EXIT_OK),
    ("trend_mann_kendall", ["trend", "--mann-kendall"], EXIT_OK),
    ("ar_maxlag4", ["ar", "--max-lag", "4"], EXIT_OK),
    ("ar_maxlag4_detrend_alpha01",
     ["ar", "--max-lag", "4", "--detrend", "--alpha", "0.1"], EXIT_OK),
    ("residuals_lag2", ["residuals", "--lag", "2"], EXIT_OK),
]
# (case name, arguments without --format, expected exit code)
COMMANDS = [
    (name, [command, INPUT, *flags], code) for name, (command, *flags), code in CASE_STUDY_COMMANDS
] + [
    # Points below the support print 0.0.
    ("gev_pdf_frechet",
     ["gev-pdf", "--mu", "100", "--sigma", "25", "--xi", "0.2", "--x=-40,0,60,100,125.5,200,1e3"],
     EXIT_OK),
    # z < -700 takes the Gumbel overflow guard.
    ("gev_pdf_gumbel",
     ["gev-pdf", "--mu", "0", "--sigma", "1", "--xi", "0", "--x=-800,-5,-1,0,0.5,3,40,800"],
     EXIT_OK),
    # The last point lies past the upper end of the support, 183.33.
    ("gev_pdf_weibull",
     ["gev-pdf", "--mu", "100", "--sigma", "25", "--xi", "-0.3", "--x=0,100,150,183.3,190"],
     EXIT_OK),
    # The hazard has a flat and a nearly flat segment, and one point has cov 0.
    ("risk_curve_losses", ["risk-curve", *RISK_FILES, "--losses", "0,10,90,100,5000"], EXIT_OK),
    # Losses of 0, a subnormal, just either side of the cov-0 point's 90 and 1e6.
    ("risk_curve_loss_csv",
     ["risk-curve", *RISK_FILES, "--loss-csv", DATA_DIR / "losses.csv"], EXIT_OK),
]
CASES = [
    (name, fmt, args, code) for name, args, code in COMMANDS for fmt in ("json", "text")
]

SEEDED_DIGESTS = SNAPSHOT_DIR / "seeded_record.json"
# Calls per value that each form adds between a 1,000- and an 8,000-value
# record, on the tied rain record and on an all-distinct one, with the
# continued fraction's calls counted apart. Both formats take a table column's
# cell texts from ``_report._column_texts`` in one call.
# - JSON: 0.0056 at most measured, against 1.006 for ``trend --mann-kendall``
#   when the tie sums ran a generator step per distinct value.
# - Text: 0.0056 at most measured, against 19.01 (``analyze``) when each
#   table cell took its own ``_fmt`` call and type-table lookup.
CALLS_PER_VALUE = 0.1
FORMS = [
    ["analyze"],
    ["analyze", "--threshold", "20"],
    ["summarize"],
    ["trend", "--mann-kendall"],
    ["ar"],
    ["residuals", "--lag", "3"],
    ["peaks", "--threshold", "20"],
    ["peaks", "--block-size", "4"],
]
# (case name, command and the flags after the seeded record's path)
SEEDED_COMMANDS = [
    ("seeded_analyze", ["analyze"]),
    ("seeded_residuals_lag2", ["residuals", "--lag", "2"]),
]
SEEDED_CASES = [
    (name, fmt, args) for name, args in SEEDED_COMMANDS for fmt in ("json", "text")
]


def _run(args, fmt, input_path=INPUT):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main([*map(str, args), "--format", fmt])
    return (
        code,
        out.getvalue().replace(str(input_path), PLACEHOLDER),
        err.getvalue().replace(str(input_path), PLACEHOLDER),
    )


def _write_seeded_record(path: Path, n: int = 2_000) -> Path:
    """Daily rain: wet days persist, amounts are 0.1 mm steps, dry days are 0.0.

    Only ``random.random`` and arithmetic draw it, so every platform and
    Python version writes the same file.
    """
    rng = random.Random(2_000)
    values, wet = [], False
    for _ in range(n):
        wet = rng.random() < (0.65 if wet else 0.3)
        values.append(round(0.1 + 60.0 * rng.random() ** 3, 1) if wet else 0.0)
    path.write_text("month,value\n" + "".join(
        f"{m},{v!r}\n" for m, v in enumerate(values, start=1)
    ))
    return path


def _write_distinct_record(path: Path, n: int) -> Path:
    """Amounts on the rain record's scale, of which no two are equal."""
    rng = random.Random(8_000)
    values = [60.0 * rng.random() ** 3 for _ in range(n)]
    assert len(set(values)) == n
    path.write_text("month,value\n" + "".join(
        f"{m},{v!r}\n" for m, v in enumerate(values, start=1)
    ))
    return path


def _digest(text: str) -> dict:
    return {"bytes": len(text.encode()), "sha256": hashlib.sha256(text.encode()).hexdigest()}


def _snapshot(name: str, fmt: str, stderr: bool = False) -> Path:
    return SNAPSHOT_DIR / (f"{name}.{fmt}.stderr" if stderr else f"{name}.{fmt}")


@pytest.mark.parametrize(
    "name, fmt, args, code", CASES, ids=[f"{name}-{fmt}" for name, fmt, _, _ in CASES]
)
def test_cli_output_matches_snapshot(name, fmt, args, code):
    exit_code, out, err = _run(args, fmt)
    assert exit_code == code
    assert out == _snapshot(name, fmt).read_text(encoding="utf-8")
    expected_err = "" if code == EXIT_OK else _snapshot(name, fmt, stderr=True).read_text(
        encoding="utf-8"
    )
    assert err == expected_err


@pytest.fixture(scope="module")
def seeded_record(tmp_path_factory) -> Path:
    return _write_seeded_record(tmp_path_factory.mktemp("seeded") / "seeded_record.csv")


@pytest.mark.parametrize(
    "name, fmt, args", SEEDED_CASES, ids=[f"{name}-{fmt}" for name, fmt, _ in SEEDED_CASES]
)
def test_seeded_record_output_matches_its_digest(seeded_record, name, fmt, args):
    command, *flags = args
    exit_code, out, err = _run([command, seeded_record, *flags], fmt, seeded_record)
    assert (exit_code, err) == (EXIT_OK, "")
    expected = json.loads(SEEDED_DIGESTS.read_text(encoding="utf-8"))[f"{name}.{fmt}"]
    assert _digest(out) == expected


def _calls(argv: list[str]) -> tuple[int, int]:
    """Function and builtin calls that one in-process run makes, as cProfile counts them.

    The second count is the calls made from the incomplete beta's continued
    fraction, ``dist._betacf``, which the first leaves out: it takes as many
    steps per p-value as where the p-value falls needs, up to 500, whatever n is.
    """
    counts = [0, 0]
    steps = dist._betacf.__code__

    def profile(frame, event, arg):
        if event == "call":
            counts[0] += 1
        elif event == "c_call":
            counts[frame.f_code is steps] += 1

    with redirect_stdout(io.StringIO()):
        sys.setprofile(profile)
        try:
            main(argv)
        finally:
            sys.setprofile(None)
    return counts[0], counts[1]


# JSON cases keep ids without the format; text cases end in "-text".
@pytest.mark.parametrize("fmt, write, form", [
    pytest.param(fmt, write, form, id=f"{name}-{' '.join(form)}" + "-text" * (fmt == "text"))
    for fmt in ("json", "text")
    for name, write in (("tied", _write_seeded_record), ("distinct", _write_distinct_record))
    for form in FORMS
])
def test_json_calls_per_value_are_bounded(tmp_path, fmt, write, form):
    """Counts, not times: no form does Python work per value beyond its bound.

    In both formats numpy and ``_report._column_texts`` take the columns,
    one call per table column, with no call per cell.
    """
    counts, steps = [], []
    for n in (1_000, 8_000):
        argv = [form[0], str(write(tmp_path / f"{n}.csv", n)), *form[1:], "--format", fmt]
        _calls(argv)  # the first run fills the t-quantile cache
        calls, continued_fraction = _calls(argv)
        counts.append(calls)
        steps.append(continued_fraction)
    per_value = (counts[1] - counts[0]) / 7_000
    assert per_value <= CALLS_PER_VALUE, (
        f"{per_value:.4f} calls per added value; continued-fraction calls, "
        f"counted apart, at 1,000 and 8,000 values: {steps}")


def _regenerate():
    SNAPSHOT_DIR.mkdir(parents=True, exist_ok=True)
    for name, fmt, args, code in CASES:
        exit_code, out, err = _run(args, fmt)
        if exit_code != code:
            raise SystemExit(f"{name}-{fmt}: exit {exit_code}, expected {code}")
        _snapshot(name, fmt).write_text(out, encoding="utf-8")
        if code != EXIT_OK:
            _snapshot(name, fmt, stderr=True).write_text(err, encoding="utf-8")
        print(f"wrote {name}.{fmt}")
    digests = {}
    with tempfile.TemporaryDirectory() as directory:
        record = _write_seeded_record(Path(directory) / "seeded_record.csv")
        for name, fmt, (command, *flags) in SEEDED_CASES:
            exit_code, out, err = _run([command, record, *flags], fmt, record)
            if (exit_code, err) != (EXIT_OK, ""):
                raise SystemExit(f"{name}-{fmt}: exit {exit_code}: {err}")
            digests[f"{name}.{fmt}"] = _digest(out)
    SEEDED_DIGESTS.write_text(json.dumps(digests, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {SEEDED_DIGESTS.name}")


if __name__ == "__main__":
    _regenerate()
