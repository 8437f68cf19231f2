"""Byte-for-byte snapshots of CLI output.

Each case runs one command, most of them on the bundled case study
``data/extreme_precipitation.csv``; ``gev-pdf`` takes only flags, and
``risk-curve`` reads the small ``data/hazard.csv``,
``data/vulnerability.csv`` and ``data/losses.csv``. Its stdout, with the
absolute case-study path replaced by ``<INPUT>``, is compared to
``data/snapshots/<case>.<format>``. A case that exits non-zero also pins
its stderr in ``<case>.<format>.stderr``. Every printed float is
covered, down to the last digit.

To regenerate after a deliberate change of output:

    PYTHONPATH=src python tests/test_cli_snapshots.py
"""
import io
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

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


def _run(args, fmt):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main([*map(str, args), "--format", fmt])
    return (
        code,
        out.getvalue().replace(str(INPUT), PLACEHOLDER),
        err.getvalue().replace(str(INPUT), PLACEHOLDER),
    )


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


if __name__ == "__main__":
    _regenerate()
