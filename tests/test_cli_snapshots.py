"""Byte-for-byte snapshots of CLI output on the bundled case study.

Each case runs one command on ``data/extreme_precipitation.csv`` and
compares its stdout, with the absolute input path replaced by
``<INPUT>``, to ``data/snapshots/<case>.<format>``. A case that exits
non-zero also pins its stderr in ``<case>.<format>.stderr``. Every
printed float is covered, down to the last digit.

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

# (case name, arguments after the input path, expected exit code)
COMMANDS = [
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
CASES = [
    (name, fmt, args, code) for name, args, code in COMMANDS for fmt in ("json", "text")
]


def _run(args, fmt):
    command, *flags = args
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main([command, str(INPUT), *flags, "--format", fmt])
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
