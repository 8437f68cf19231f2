"""Byte-identity of every command, in both output formats, on a seeded corpus.

Each case writes its input files into one temporary directory and runs one
command in process, once with ``--format text`` and once with ``--format
json``. Its exit code, the sha256 and length in bytes of its stdout and
its stderr, with the directory replaced by ``<DIR>``, are compared to
``data/snapshots/text_digests.json`` and ``data/snapshots/json_digests.json``.
The corpus covers all eight commands:

- seeded records of four shapes (rain-like amounts with ties, Gumbel,
  60% dry days, near-constant) at several lengths, every other one with
  gapped months;
- edge records (four values, a constant, an exactly linear one), records
  the reader refuses, and the bundled case study;
- on each record, ``summarize``, ``peaks`` by threshold, by threshold
  with ``--zero-fill`` and by block maxima, ``trend`` with and without
  ``--mann-kendall``, ``ar`` with and without ``--detrend``,
  ``residuals --lag 1`` and ``--lag 3``, and ``analyze`` plain, with
  ``--threshold``, ``--no-detrend`` and ``--max-lag 6``;
- ``gev-pdf`` on seeded parameters and points, and ``risk-curve`` on the
  bundled hazard and vulnerability files with seeded loss grids;
- ``risk-curve`` on the contract sweep's generated hazard, vulnerability
  and loss files (``test_contract_sweep._risk_argv``), good or with one or
  two faults, drawn from a generator of their own, so that every hazard,
  grid and vulnerability message is pinned byte for byte;
- last, two 2,000-value daily records from ``test_cli_snapshots``'s
  generators, the rain record with ties and dry days and an all-distinct
  one, under every series command above and ``residuals --lag 2``, their
  flags drawn from a third generator: outputs of hundreds of kilobytes,
  beyond the case study's 29 residual rows.

Failing runs stay in the corpus, so a rewrite of a renderer or a reader is
checked against every exit code, not only against successful reports.
Only ``random.Random`` and arithmetic draw the inputs, so every platform
writes the same files.

To regenerate after a deliberate change of output:

    PYTHONPATH=src python tests/test_text_digests.py

Before it writes, it prints per format how many committed cases kept
every field they share with the new run, each case that changed (by argv
and field), and how many cases were added or removed.
"""
import hashlib
import io
import json
import math
import random
import shutil
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from riskseries.cli import main
from test_cli_snapshots import _write_distinct_record, _write_seeded_record
from test_contract_sweep import _risk_argv as _sweep_risk_argv

DATA_DIR = Path(__file__).parent / "data"
FORMATS = ("text", "json")
DIGESTS = {fmt: DATA_DIR / "snapshots" / f"{fmt}_digests.json" for fmt in FORMATS}
PLACEHOLDER = "<DIR>"
SEED = 31
SHAPES = ("rain", "gumbel", "dry", "flat")
SIZES = (7, 13, 30, 75, 160)
RECORDS_PER_SHAPE_AND_SIZE = 3
GEV_CASES = 60
RISK_CASES = 40
SWEEP_RISK_SEED = 32
SWEEP_RISK_CASES = 200
LONG_SEED = 33
LONG_RECORD_SIZE = 2_000
# (name, months, value cells): records every series command refuses.
BROKEN = [
    ("repeated-month", [1, 2, 2, 3, 4], ["2.0", "3.5", "4.0", "1.0", "2.5"]),
    ("non-finite", [1, 2, 3, 4, 5], ["2.0", "inf", "4.0", "1.0", "2.5"]),
    ("not-a-number", [1, 2, 3, 4, 5], ["2.0", "3.5", "x", "1.0", "2.5"]),
    ("header-only", [], []),
]


def _values(rng: random.Random, shape: str, n: int) -> list[float]:
    if shape == "rain":  # every day wet, amounts in 0.1 mm steps, so values tie
        return [round(rng.gammavariate(0.7, 12.0), 1) for _ in range(n)]
    if shape == "gumbel":
        return [100.0 - 20.0 * math.log(rng.expovariate(1.0)) for _ in range(n)]
    if shape == "dry":
        return [round(rng.expovariate(0.1), 1) if rng.random() < 0.4 else 0.0 for _ in range(n)]
    return [1234.5 + rng.randint(-2, 2) * 2.0**-40 for _ in range(n)]


def _months(rng: random.Random, n: int, gapped: bool) -> list[int]:
    if not gapped:
        return list(range(1, n + 1))
    months, month = [], 0
    for _ in range(n):
        month += 1 if rng.random() < 0.8 else rng.randint(2, 12)
        months.append(month)
    return months


def _read_values(path: Path) -> list[float]:
    return [float(row.split(",")[1]) for row in path.read_text().split()[1:]]


def _write_series(path: Path, months: list[int], values: list[float]) -> str:
    path.write_text("month,value\n" + "".join(f"{m},{v!r}\n" for m, v in zip(months, values)))
    return str(path)


def _series_argvs(rng: random.Random, path: str, values: list[float]) -> list[list[str]]:
    threshold = repr(rng.choice(values))
    comparison = rng.choice(["strictly-above", "at-or-above"])
    return [
        ["summarize", path],
        ["peaks", path, "--threshold", threshold, "--comparison", comparison],
        ["peaks", path, "--threshold", threshold, "--zero-fill"],
        ["peaks", path, "--block-size", "4"],
        ["trend", path],
        ["trend", path, "--mann-kendall"],
        ["ar", path],
        ["ar", path, "--detrend"],
        ["residuals", path, "--lag", "1"],
        ["residuals", path, "--lag", "3"],
        ["analyze", path],
        ["analyze", path, "--threshold", threshold],
        ["analyze", path, "--no-detrend"],
        ["analyze", path, "--max-lag", "6"],
    ]


def _gev_argv(rng: random.Random) -> list[str]:
    mu = rng.uniform(-100.0, 100.0)
    sigma = rng.choice([10.0 ** rng.uniform(-2.0, 3.0)] * 8 + [0.0, -1.0, 1e-320])
    xi = rng.choice([0.0, 0.0, rng.uniform(-1.0, 1.0)])
    spread = max(abs(sigma), 1.0) * rng.uniform(0.5, 20.0)
    xs = ",".join(repr(mu + rng.uniform(-spread, spread)) for _ in range(rng.randint(1, 12)))
    return ["gev-pdf", "--mu", repr(mu), "--sigma", repr(sigma), "--xi", repr(xi), f"--x={xs}"]


def _risk_argv(rng: random.Random, directory: Path) -> list[str]:
    argv = ["risk-curve", "--hazard", str(directory / "hazard.csv"),
            "--vulnerability", str(directory / "vulnerability.csv")]
    if rng.random() < 0.1:
        return argv + ["--loss-csv", str(directory / "losses.csv")]
    losses = sorted(rng.choice([0.0, 10.0 ** rng.uniform(-3.0, 4.0)])
                    for _ in range(rng.randint(1, 40)))
    if rng.random() < 0.1:  # a negative loss is refused
        losses[0] = -1.0
    return argv + [f"--losses={','.join(map(repr, losses))}"]


def _cases(directory: Path) -> list[list[str]]:
    """Every case's argv, less ``--format``, after writing its inputs into directory."""
    for name in ("extreme_precipitation.csv", "hazard.csv", "vulnerability.csv", "losses.csv"):
        shutil.copy(DATA_DIR / name, directory / name)
    rng = random.Random(SEED)
    case_study = directory / "extreme_precipitation.csv"
    argvs = _series_argvs(rng, str(case_study), _read_values(case_study))
    edges = {
        "four": [3.0, 1.0, 4.0, 1.5],
        "constant": [5.0] * 10,
        "linear": [2.0 * i + 1.0 for i in range(12)],
    }
    for name, values in edges.items():
        path = _write_series(directory / f"{name}.csv", list(range(1, len(values) + 1)), values)
        argvs += _series_argvs(rng, path, values)
    for name, months, cells in BROKEN:
        path = directory / f"{name}.csv"
        path.write_text("month,value\n" + "".join(f"{m},{c}\n" for m, c in zip(months, cells)))
        argvs += _series_argvs(rng, str(path), [2.0])
    record = 0
    for shape in SHAPES:
        for n in SIZES:
            for _ in range(RECORDS_PER_SHAPE_AND_SIZE):
                values = _values(rng, shape, n)
                months = _months(rng, n, gapped=record % 2 == 1)
                path = _write_series(directory / f"record{record}.csv", months, values)
                argvs += _series_argvs(rng, path, values)
                record += 1
    argvs += [_gev_argv(rng) for _ in range(GEV_CASES)]
    argvs += [_risk_argv(rng, directory) for _ in range(RISK_CASES)]
    sweep_rng = random.Random(SWEEP_RISK_SEED)
    argvs += [_sweep_risk_argv(sweep_rng, directory, case) for case in range(SWEEP_RISK_CASES)]
    long_rng = random.Random(LONG_SEED)
    for path in (_write_seeded_record(directory / "long_rain.csv", LONG_RECORD_SIZE),
                 _write_distinct_record(directory / "long_distinct.csv", LONG_RECORD_SIZE)):
        argvs += _series_argvs(long_rng, str(path), _read_values(path))
        argvs.append(["residuals", str(path), "--lag", "2"])
    return argvs


def _run(argv: list[str], directory: Path, fmt: str) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main([*argv, "--format", fmt])
    stdout = out.getvalue().replace(str(directory), PLACEHOLDER).encode()
    return {
        "argv": [arg.replace(str(directory), PLACEHOLDER) for arg in argv],
        "code": code,
        "stdout_sha256": hashlib.sha256(stdout).hexdigest(),
        "stdout_bytes": len(stdout),
        "stderr": err.getvalue().replace(str(directory), PLACEHOLDER),
    }


def _corpus(directory: Path, fmt: str) -> list[dict]:
    return [_run(argv, directory, fmt) for argv in _cases(directory)]


@pytest.fixture(scope="module")
def committed() -> dict[str, list[dict]]:
    return {fmt: json.loads(path.read_text(encoding="utf-8"))["cases"]
            for fmt, path in DIGESTS.items()}


def test_corpus_reaches_every_command_and_exit_code(committed):
    for fmt, cases in committed.items():
        assert {case["code"] for case in cases} == {0, 1, 2, 3}, fmt
        assert {case["argv"][0] for case in cases} == {
            "summarize", "peaks", "trend", "ar", "residuals", "analyze", "gev-pdf", "risk-curve"}
        risk = [case for case in cases if case["argv"][0] == "risk-curve"]
        assert len(risk) == RISK_CASES + SWEEP_RISK_CASES, fmt
        assert {case["code"] for case in risk} == {0, 1, 2}, fmt
        # The two long records come last, each under 14 series argvs and residuals --lag 2.
        long = [case for case in cases if case["argv"][1].startswith("<DIR>/long_")]
        assert len(long) == 2 * 15 and long == cases[-len(long):], fmt
    assert [case["argv"] for case in committed["text"]] == [
        case["argv"] for case in committed["json"]]


def _changed(runs: list[dict], committed: list[dict]) -> list:
    assert [run["argv"] for run in runs] == [case["argv"] for case in committed]
    return [
        (" ".join(run["argv"]), {key: (case[key], run[key]) for key in run if run[key] != case[key]})
        for run, case in zip(runs, committed) if run != case
    ]


def test_text_output_matches_committed_digests(committed, tmp_path):
    assert _changed(_corpus(tmp_path, "text"), committed["text"]) == []


def test_json_output_matches_committed_digests(committed, tmp_path):
    assert _changed(_corpus(tmp_path, "json"), committed["json"]) == []


def _print_changes(fmt: str, committed: list[dict], cases: list[dict]):
    """How the new cases differ from the committed ones, case by case in order."""
    changed = [(" ".join(case["argv"]), [key for key in old if key in case and old[key] != case[key]])
               for old, case in zip(committed, cases)]
    changed = [(argv, keys) for argv, keys in changed if keys]
    kept = min(len(committed), len(cases)) - len(changed)
    print(f"{fmt}: {kept} kept, {len(changed)} changed, "
          f"{max(len(cases) - len(committed), 0)} added, "
          f"{max(len(committed) - len(cases), 0)} removed")
    for argv, keys in changed:
        print(f"  changed {', '.join(keys)}: {argv}")


if __name__ == "__main__":
    for fmt, path in DIGESTS.items():
        with tempfile.TemporaryDirectory() as scratch:
            cases = _corpus(Path(scratch), fmt)
        committed = json.loads(path.read_text(encoding="utf-8"))["cases"] if path.exists() else []
        _print_changes(fmt, committed, cases)
        path.write_text(json.dumps({"seed": SEED, "cases": cases}, indent=1) + "\n",
                        encoding="utf-8")
        codes = [case["code"] for case in cases]
        print(f"{fmt}: {len(cases)} cases, exit codes",
              {code: codes.count(code) for code in sorted(set(codes))})
