"""Mutation check: does Tier-1 fail when a decision in the code is flipped?

Each entry of ``MUTANTS`` is one textual change to one source file. For
each, the runner copies ``src/``, ``tests/``, ``README.md`` and
``pyproject.toml`` to a temporary directory, applies the change there
(the old text must occur exactly once), runs Tier-1 with ``-x``, less
``tests/test_mutants.py``, and prints KILLED (a test failed), SURVIVED
(every test passed) or ERROR (pytest itself did not run). A mutant whose note starts with
``equivalent:`` changes nothing a test can see, and the note says why.
Before the mutants, the unchanged copy must pass, or a broken tree
would read as a run of kills.

Run from the repository root, with the standard library only:

    python tests/mutants.py               # every mutant
    python tests/mutants.py select_       # those whose note contains "select_"
    python tests/mutants.py evt_risk.py   # those of src/riskseries/evt_risk.py

A word that ends in ``.py`` selects by file name, any other by the note.

pytest does not collect this file. A full run takes several minutes,
because each surviving mutant runs the whole of Tier-1.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "README.md", "pyproject.toml")
# test_mutants.py checks that each old text occurs once, so it would fail on
# every mutant; the runner checks that count itself before applying one.
TIER1 = ("-m", "pytest", "-q", "-x", "--continue-on-collection-errors", "-p", "no:cacheprovider",
         "--ignore=tests/test_mutants.py")

# (file, old text, new text, note)
MUTANTS = [
    ("src/riskseries/autoreg.py", "KEEP if abs(z) > threshold else DROP",
     "KEEP if abs(z) >= threshold else DROP",
     "select_order: a |Z| equal to Z_alpha keeps the lag"),
    ("src/riskseries/trend.py", "if p_value < alpha:", "if p_value <= alpha:",
     "mann_kendall: p equal to alpha rejects"),
    ("src/riskseries/residuals.py", "np.abs(standardized) > outlier_threshold",
     "np.abs(standardized) >= outlier_threshold",
     "residual_analysis: |standardized| equal to the threshold flags"),
    ("src/riskseries/linreg.py", "singular_values[-1] <= RANK_TOLERANCE * singular_values[0]",
     "singular_values[-1] < RANK_TOLERANCE * singular_values[0]",
     "equivalent: fit_ols's rank test differs only at an exact float tie"),
    ("src/riskseries/linreg.py", "overflows = not np.all(np.isfinite(r))", "overflows = False",
     "_solve: an overflowing design, whose R holds NaN, is a numerical error at every order"),
    ("src/riskseries/residuals.py", "if scale <= 1e-12 * value_scale:",
     "if scale < 1e-12 * value_scale:",
     "equivalent: the residual degeneracy test differs only at an exact float tie"),
    ("src/riskseries/dist.py", "student_t_two_sided_p(t, df) > alpha, lo, hi, 200)",
     "student_t_two_sided_p(t, df) > alpha, lo, hi, 60)",
     "equivalent: student_t_critical's bracket closes before 60 bisection steps for "
     "alpha 0.05 to 1e-15 and df 1 to 10,000"),
    ("src/riskseries/trend.py", "if s == 0 or var_s <= 0.0:", "if s == 0 or var_s < 0.0:",
     "equivalent: Mann-Kendall's var_S is 0 only when every value ties, and then S is 0"),
    ("src/riskseries/evt_risk.py", "_FLAT_SEGMENT_EPS = 1e-8", "_FLAT_SEGMENT_EPS = 1e-6",
     "equivalent: no segment of the accuracy corpus tells 1e-8 from 1e-6; whether one "
     "should is ROADMAP item 9's question"),
    ("src/riskseries/_report.py", "bits = column.view(np.int64)", "bits = column",
     "_column_texts: a float64 array is sorted and split into runs by value, not by bits, "
     "so 0.0 and -0.0 take one text"),
    ("src/riskseries/_report.py", "if len(kinds) == 1 else None", "if kinds else None",
     "_column_texts: a column of two scalar types takes the formatter of one of them, "
     "so [True, 1] is written as 1, 1 or true, true instead of raising TypeError"),
    ("src/riskseries/_report.py", "kinds = set(map(type, column))", "kinds = {type(column[0])}",
     "_column_texts: a column is typed by its first item, so [True, 1] is written as "
     "true, true and [1.0, np.float64(2.0)] as floats instead of raising TypeError"),
    ("src/riskseries/dist.py", "if x == 0.0 and df <= 2:", "if x == 0.0 and df <= 1:",
     "student_t_two_sided_p: at df 2 past |t| = 2**512 the tail reads 0.0, not 1 / t**2"),
    ("src/riskseries/dist.py", "x = d2 / d1 / f", "x = 0.0",
     "f_upper_tail: where d1 * f overflows the tail reads 0.0, not its value from d2 / d1 / f"),
    ("src/riskseries/series.py",
     "self._mean = float(min(max(mean, column.min()), column.max()))", "self._mean = mean",
     "_Moments.mean: the mean is not clamped into the column's range, so five equal "
     "values of 1.2e228 square their deviations past the largest double"),
    ("src/riskseries/series.py", "if abs(mean - column[0].item()) > 2 * (n + 1) * math.ulp(mean):",
     "if abs(mean - column[0].item()) > 0.0:",
     "_Moments.mean: the clamp is skipped for any mean off the first value, so a series of "
     "equal huge values keeps a mean one ulp outside them"),
    ("src/riskseries/series.py",
     "total += ((int(whole) << 26) + int(fraction * 2.0 ** 26)) << shift",
     "total += (int(whole) << 26) << shift",
     "_exact_total: the low 26 bits of each mantissa are dropped, so a series total "
     "is not its exact sum"),
    ("src/riskseries/series.py", "bounded=self._total[2] <= 510)", "bounded=self._total[2] <= 1022)",
     "_Moments.sum_of_squares: squares of a series' deviations up to 2**1023 skip the "
     "overflow check, so a square past the largest double warns and gives inf"),
    ("src/riskseries/series.py", "if self._total[2] <= 1022:", "if True:",
     "_Moments.deviations: a deviation of a series past the largest double warns and "
     "gives inf instead of raising OverflowError"),
    ("src/riskseries/series.py", "for i in (*range(start), *range(stop, len(values))):",
     "for i in range(stop, len(values)):",
     "_slice_total: the head values are not subtracted, so the p:n slice of a "
     "series takes the mean of 0:n's total over n - p"),
    ("src/riskseries/_pipeline.py", "for label, source in sources.items()}",
     "for label, source in reversed(sources.items())}",
     "run_pipeline: each per-series stage runs on the detrended series before the raw one"),
    ("src/riskseries/_report.py", "runs[order] = starts.cumsum() - 1",
     "runs[:] = starts.cumsum() - 1",
     "_column_texts: a float64 array's texts are left in sorted order, not scattered "
     "back into row order"),
    ("src/riskseries/dist.py", "if x <= 0.0:", "if x < 0.0:",
     "regularized_incomplete_beta: x = 0, the t tail's at t = +-inf (an exact fit) and the "
     "F tail's at F = inf, reaches log(0) and raises a math domain error"),
    ("src/riskseries/dist.py", "if x >= 1.0:", "if x > 1.0:",
     "regularized_incomplete_beta: x = 1, the t tail's at t = 0 and the F tail's at F = 0 "
     "(a constant response), reaches log1p(-1) and raises a math domain error"),
    ("src/riskseries/dist.py", "if math.isinf(hi * hi):", "if hi > 1e300:",
     "student_t_critical: past 2**511 the tail reads 0 and the bracket stops, so alpha "
     "1e-160 at df 1 gets 2**512 instead of a numerical error"),
    ("src/riskseries/dist.py", "value < 1", "value < 0",
     "_check_count: 0 passes as a count (a lag order, block size, n or degrees of freedom)"),
    ("src/riskseries/evt_risk.py", "if mean == math.inf:", "if False:",
     "lognormal_params: an infinite mean loss is accepted, by a point and by a curve"),
    ("src/riskseries/evt_risk.py",
     "zip([(-math.inf, math.inf), *points], points)", "zip(points, points[1:])",
     "HazardCurve: the first point is not checked, so a first point that is not finite "
     "or has a frequency <= 0 is accepted or reported at the second"),
    ("src/riskseries/evt_risk.py",
     "def _standard_score(x: float, theta: float, beta: float)",
     "def _standard_score(x: float, beta: float, theta: float)",
     "_standard_score: theta and beta are swapped, so the scalar reference reads the "
     "log-sd as the median"),
    ("src/riskseries/_readers.py", '(line.split(",") if len(names) > 1 else [line])',
     'line.split(",")',
     "_read_table: a one-column row is split on commas, so the loss row 0,1 has two fields"),
    ("src/riskseries/_readers.py",
     """        _prefixed(f"{path}: line {lineno}: ", check_row, table, row)
        table.append(row)
    if not table:
        raise DataError(f"{path}: no data rows")
    return _prefixed(f"{path}: ", build, *zip(*table))""",
     """        table.append((lineno, row))
    if not table:
        raise DataError(f"{path}: no data rows")
    built = _prefixed(f"{path}: ", build, *zip(*(row for _, row in table)))
    for i, (lineno, row) in enumerate(table):
        _prefixed(f"{path}: line {lineno}: ", check_row, [r for _, r in table[:i]], row)
    return built""",
     "_read_table: the rows are checked after no data rows and build, not before"),
    ("src/riskseries/series.py", "key = (start, stop)", "key = stop",
     "TimeSeries._moments: the memo keys on stop only, so 0:n and p:n share their moments"),
    ("src/riskseries/autoreg.py", "a = series._moments(lag, n)", "a = series._moments(0, n - lag)",
     "lag_correlation: the lag:n moments are read from 0:n-lag"),
    ("src/riskseries/_text.py", 'map(str.rstrip, map("  ".join, zip(*padded)))',
     'map("  ".join, zip(*padded))',
     "_text._table: rows keep their trailing blanks, the last column's padding and the "
     "ANOVA rows' empty cells"),
    ("src/riskseries/_text.py", "repeat(max(map(len, column)))", "repeat(len(column[0]))",
     "_text._table: each column is padded to its header's width, not its widest cell"),
    ("src/riskseries/_text.py", "for key, model in models.items()",
     "for key, model in reversed(models.items())",
     "_text._ar_lines: AR orders are printed highest first, not in the report's order"),
    ("src/riskseries/series.py", "mean = _rounded(total, exponent) / n",
     "mean = math.nextafter(_rounded(total, exponent) / n, math.inf)",
     "_Moments.mean: every slice mean is one ulp too high"),
    ("src/riskseries/evt_risk.py", "if len(points) < 2:", "if len(points) < 1:",
     "HazardCurve: a one-point hazard is accepted"),
    ("src/riskseries/_record.py", "if self._columns:", "if False:",
     "Record.__init__: a column record's arrays stay writeable on construction"),
    ("src/riskseries/_record.py", "_freeze(state)", "pass",
     "_rebuild: a pickled or deep-copied record's columns come back writeable"),
    ("src/riskseries/__init__.py",
     'name.startswith("_") or isinstance(value, _ModuleType)', 'name.startswith("_")',
     "__all__: the imported submodules, such as autoreg and dist, are exported"),
    ("src/riskseries/autoreg.py", "if not sys.float_info.min <= product < math.inf:",
     "if not 0.0 < product < math.inf:",
     "lag_correlation: a subnormal product of the lag variances takes one square root, "
     "so the lag-1 correlation of a record scaled by 2**-262 is thousands of ulp off"),
    ("src/riskseries/residuals.py", "float(np.abs(observed).max())", "float(observed.max())",
     "residual_analysis: the degeneracy scale is the largest value, not magnitude, so an "
     "exact fit of an all-negative record is standardized against float noise"),
    ("src/riskseries/_report.py", "return _array_texts(column, scalar_text)",
     "return _array_texts(column, _SCALAR_TEXT)",
     "_column_texts: a float64 array in a text table takes JSON reprs, not {:.9g}"),
    ("src/riskseries/_report.py", "if not kinds:", "if kinds is None:",
     "_column_texts: an empty list column raises TypeError, so text peaks with no "
     "events fails"),
    ("src/riskseries/_report.py", "_write_json(item, parts, inner)",
     "_write_json(item, parts, newline)",
     "_write_json: a dict's values are indented at the dict's own level, not one deeper"),
    ("src/riskseries/_report.py", "ColumnTable(events.indices, events.values)",
     "ColumnTable(events.values, events.values)",
     "event_series_to_dict: each POT observation gives its value in place of its index"),
    ("src/riskseries/_text.py", "_CELL_TEXT[type(value)](value)",
     "_CELL_TEXT.get(type(value), str)(value)",
     "_text._fmt: a cell of a type outside the cell table is written by str, not refused"),
]


def _tier1(root: Path) -> tuple[int, float]:
    env = {**os.environ, "PYTHONPATH": str(root / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    start = time.perf_counter()
    done = subprocess.run([sys.executable, *TIER1], cwd=root, env=env,
                          stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return done.returncode, time.perf_counter() - start


def _copy(target: Path):
    for name in COPIED:
        source = ROOT / name
        if source.is_dir():
            shutil.copytree(source, target / name,
                            ignore=shutil.ignore_patterns("__pycache__", "*.pyc"))
        else:
            shutil.copy2(source, target / name)


def _verdict(code: int) -> str:
    # pytest exits 0 when every test passed and 1 when some test failed.
    return {0: "SURVIVED", 1: "KILLED"}.get(code, f"ERROR (pytest exit {code})")


def main(argv: list[str]) -> int:
    chosen = [m for m in MUTANTS if not argv or any(
        Path(m[0]).name == word if word.endswith(".py") else word in m[3] for word in argv)]
    with tempfile.TemporaryDirectory(prefix="riskseries-mutants-") as copy_dir:
        root = Path(copy_dir)
        _copy(root)
        code, seconds = _tier1(root)
        if code != 0:
            print(f"the unchanged copy fails Tier-1 (pytest exit {code}); no mutant was run")
            return 2
        print(f"unchanged copy: Tier-1 passes in {seconds:.0f} s", flush=True)
        unexpected = 0
        for path, old, new, note in chosen:
            target = root / path
            original = target.read_text(encoding="utf-8")
            count = original.count(old)
            if count != 1:
                print(f"ERROR     {path}: the old text occurs {count} times  {old!r}")
                unexpected += 1
                continue
            target.write_text(original.replace(old, new), encoding="utf-8")
            try:
                code, seconds = _tier1(root)
            finally:
                target.write_text(original, encoding="utf-8")
            verdict = _verdict(code)
            expected = "SURVIVED" if note.startswith("equivalent:") else "KILLED"
            unexpected += verdict != expected
            print(f"{verdict:<9} {path}: {old!r} -> {new!r} ({seconds:.0f} s)\n"
                  f"          {note}", flush=True)
    print(f"{len(chosen)} mutants, {unexpected} not as expected")
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
