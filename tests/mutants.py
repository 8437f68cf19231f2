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

    python tests/mutants.py            # every mutant
    python tests/mutants.py select_    # those whose note contains "select_"

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
    ("src/riskseries/_report.py", "repeated = len(zero_signs) == 1", "repeated = True",
     "_column_texts: a repeated float column with zeros of both signs keeps the table"),
    ("src/riskseries/_pipeline.py", "for label, source in sources.items()}",
     "for label, source in reversed(sources.items())}",
     "run_pipeline: each per-series stage runs on the detrended series before the raw one"),
    ("src/riskseries/_report.py", "2 * len(table) <= len(column)", "2 * len(table) < len(column)",
     "equivalent: the half rule picks between two ways that give the same texts; "
     "it changes speed only"),
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
    chosen = [m for m in MUTANTS if not argv or any(word in m[3] for word in argv)]
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
