"""The CLI contract on a seeded sweep of generated series and flags.

Each case writes one series CSV and runs one command on it in process:

- series of 0 to 200 values at scales from 1e-320 to 1e307, of six kinds
  (constant, alternating, step, trend, rain-like with ties, noise), with
  gapped months and, now and then, repeated, shuffled or huge ones;
- the series commands and ``gev-pdf``, with their flags drawn from the
  ranges the README documents, in text or JSON;
- then ``risk-curve`` on small hazard, vulnerability and loss files, good
  or broken (a bad header, a non-finite or out-of-contract cell, rows out
  of order, off the grid, extra or missing, an extra field, a BOM, blank
  lines), with ``--losses`` or ``--loss-csv``, drawn from a generator of
  their own so the series cases do not move;
- first, the known routes to ``Infinity`` in JSON (ROADMAP item 5).

Every run must keep the contract: no exception escapes ``main``, the exit
code is 0 to 3, a failing run prints nothing on stdout and one stderr line
that names its kind of error, a successful one prints nothing on stderr,
and JSON output parses. ``ar`` and ``analyze`` must make as many ``_solve``
calls at a ``--max-lag`` above ``max_order(n)`` as at ``max_order(n) + 1``;
searches that wide run only on series of up to 40 values, since one on a
long series takes seconds (ROADMAP item 14). The seed and the case count
are fixed; nothing here reads a clock.
"""
import contextlib
import io
import json
import random
import warnings

import pytest

from riskseries import autoreg, linreg, peaks
from riskseries.cli import main

SEED = 16
CASES = 5000
RISK_SEED = 26
RISK_CASES = 400
KINDS = ("constant", "alternating", "step", "trend", "rain", "noise")
PREFIXES = ("usage error: ", "data error: ", "numerical error: ")
ITEM_5 = "ROADMAP item 5: JSON output may hold Infinity or NaN"
# (argv, series values): an exact AR fit gives an infinite t and F, which
# print as Infinity.
KNOWN_ROUTES = [
    (["analyze"], [0.0, 1e10, 0.0, 1e10, 0.0]),
    (["ar", "--max-lag", "1"], [0.0, 1e10, 0.0, 1e10, 0.0]),
]
RISK_HEADERS = {"hazard": "s,G", "vulnerability": "s,mean_loss,cov", "losses": "x"}


def _values(rng: random.Random, kind: str, n: int) -> list[float]:
    if kind == "constant":
        return [1.0] * n
    if kind == "alternating":
        return [float(i % 2) for i in range(n)]
    if kind == "step":
        cut = rng.randint(0, n)
        return [0.0 if i < cut else 1.0 for i in range(n)]
    if kind == "trend":
        return [i + rng.gauss(0.0, 0.1 * n + 1e-3) for i in range(n)]
    if kind == "rain":
        return [round(rng.expovariate(0.1), 1) if rng.random() < 0.4 else 0.0 for _ in range(n)]
    return [rng.gauss(0.0, 1.0) for _ in range(n)]


def _months(rng: random.Random, n: int) -> list[int]:
    months, month = [], 0
    for _ in range(n):
        month += 1 if rng.random() < 0.8 else rng.randint(2, 40)
        months.append(month)
    roll = rng.random()
    if roll < 0.03 and n > 1:
        months[-1] = months[-2]  # a repeated month is a data error
    elif roll < 0.06:
        rng.shuffle(months)
    elif roll < 0.09:
        months = [month + 2**62 for month in months]
    return months


def _write_series(rng: random.Random, path, kind: str, n: int, comma: bool) -> list[float]:
    # Half the series at everyday scales, half anywhere; round exponents half the time.
    exponent = rng.uniform(-3.0, 6.0) if rng.random() < 0.5 else rng.uniform(-320.0, 307.0)
    scale = 10.0 ** (round(exponent) if rng.random() < 0.5 else exponent)
    values = [v * scale for v in _values(rng, kind, n)]
    sep, point = (";", ",") if comma else (",", ".")
    rows = [f"{m}{sep}{repr(v).replace('.', point)}" for m, v in zip(_months(rng, n), values)]
    path.write_text("\n".join([f"month{sep}value", *rows]) + "\n", encoding="utf-8")
    return values


def _max_lag(rng: random.Random, n: int) -> int:
    if n > 40:
        return rng.choice([1, 2, 3, 5])
    top = max(autoreg.max_order(n), 0)
    return rng.choice([1, 2, 3, 5, max(top, 1), top + 1, top + rng.randint(2, 10**6)])


def _alpha(rng: random.Random) -> str:
    return repr(rng.choice([0.05, 0.01, 0.1, 10.0 ** rng.uniform(-15.0, -0.31)]))


def _series_argv(rng: random.Random, path: str, values: list[float], n: int) -> list[str]:
    command = rng.choice(["summarize", "peaks", "peaks", "trend", "ar", "ar",
                          "residuals", "analyze", "analyze", "analyze"])
    argv = [command, path]
    threshold = repr(rng.choice(values) if values and rng.random() < 0.8
                     else rng.uniform(-1.0, 1.0) * 10.0 ** rng.uniform(-320.0, 307.0))
    if command == "peaks":
        if rng.random() < 0.5:
            argv += ["--block-size", str(rng.randint(1, n + 2))]
        else:
            argv += ["--threshold", threshold, "--comparison", rng.choice([peaks.STRICTLY_ABOVE, peaks.AT_OR_ABOVE])]
            argv += ["--zero-fill"] if rng.random() < 0.4 else []
    elif command == "trend":
        argv += ["--mann-kendall"] if rng.random() < 0.7 else []
        argv += ["--alpha", _alpha(rng)]
    elif command == "ar":
        argv += ["--max-lag", str(_max_lag(rng, n)), "--alpha", _alpha(rng)]
        argv += ["--detrend"] if rng.random() < 0.4 else []
    elif command == "residuals":
        argv += ["--lag", str(rng.choice([1, 2, 3, max(autoreg.max_order(n), 1)]))]
        argv += ["--outlier-threshold", repr(rng.uniform(0.1, 5.0))]
        argv += ["--detrend"] if rng.random() < 0.4 else []
    elif command == "analyze":
        argv += ["--max-lag", str(_max_lag(rng, n)), "--alpha", _alpha(rng),
                 "--outlier-threshold", repr(rng.uniform(0.1, 5.0))]
        argv += ["--threshold", threshold] if rng.random() < 0.3 else []
        argv += ["--no-detrend"] if rng.random() < 0.2 else []
    return argv


def _gev_argv(rng: random.Random) -> list[str]:
    def scaled() -> str:
        return repr(rng.uniform(-1.0, 1.0) * 10.0 ** rng.uniform(-320.0, 307.0))

    mu = scaled()
    sigma = repr(10.0 ** rng.uniform(-320.0, 307.0))
    xi = repr(rng.choice([0.0, rng.uniform(-2.0, 2.0)]))
    xs = ",".join(rng.choice([mu, scaled()]) for _ in range(rng.randint(1, 6)))
    return ["gev-pdf", "--mu", mu, "--sigma", sigma, "--xi", xi, "--x", xs]


def _risk_tables(rng: random.Random) -> dict[str, list[list[str]]]:
    """The rows of a good hazard, vulnerability and loss file, as cells."""
    n = rng.randint(0, 3) if rng.random() < 0.1 else rng.randint(2, 50)
    s = rng.uniform(-5.0, 5.0)
    g = 10.0 ** (rng.uniform(-6.0, 2.0) if rng.random() < 0.8 else rng.uniform(-300.0, 300.0))
    hazard, vulnerability = [], []
    for _ in range(n):
        hazard.append([repr(s), repr(g)])
        cov = rng.choice([0.0, rng.uniform(0.0, 2.0)])
        vulnerability.append([repr(s), repr(10.0 ** rng.uniform(-3.0, 3.0)), repr(cov)])
        s += rng.uniform(0.01, 2.0)
        g *= rng.choice([1.0, rng.uniform(0.05, 1.0)])
    losses = [[repr(rng.choice([0.0, 10.0 ** rng.uniform(-4.0, 4.0)]))]
              for _ in range(rng.randint(1, 50))]
    return {"hazard": hazard, "vulnerability": vulnerability, "losses": losses}


def _break_risk_table(rng: random.Random, tables: dict, headers: dict):
    """One fault in one of the three files."""
    kind = rng.choice(list(tables))
    rows = tables[kind]
    fault = rng.choice(["header", "non-finite", "swap", "cell", "off-grid", "extra-row",
                        "missing-row", "extra-field"])
    if fault == "header":
        headers[kind] = rng.choice(["", "s,G,extra", "s;G", "x,y", "mean_loss", " X ",
                                    "S,MEAN_LOSS,COV"])
        return
    if not rows:
        return
    i = rng.randrange(len(rows))
    j = rng.randrange(len(rows[i]))
    if fault == "non-finite":
        rows[i][j] = rng.choice(["nan", "inf", "-inf", "1e400"])
    elif fault == "swap":  # s not increasing, G rising, or a loss moved
        rows[i], rows[i - 1] = rows[i - 1], rows[i]
    elif fault == "cell":  # G <= 0, a negative loss, mean loss or CoV, or no number at all
        rows[i][j] = rng.choice(["-1", "0", "-0.0", "5e-324", "1e300", "1.4e154", "abc", ""])
    elif fault == "off-grid":  # one more digit moves s, if it still parses
        rows[i][0] += rng.choice(["1", "5"])
    elif fault == "extra-row":
        rows.insert(i, [repr(rng.uniform(-5.0, 100.0)) for _ in rows[i]])
    elif fault == "missing-row":
        del rows[i]
    else:  # a comma in a loss row makes it "0,1"
        rows[i] = rows[i] + ["1"]


def _write_risk_table(rng: random.Random, path, header: str, rows: list[list[str]]):
    lines = [header, *(",".join(row) for row in rows)]
    if rng.random() < 0.1:
        for _ in range(rng.randint(1, 3)):
            lines.insert(rng.randint(0, len(lines)), rng.choice(["", " ", "\t"]))
    data = (rng.choice(["\n", "\r\n"]).join(lines) + "\n").encode()
    path.write_bytes(b"\xef\xbb\xbf" + data if rng.random() < 0.1 else data)


def _risk_argv(rng: random.Random, directory, case: int) -> list[str]:
    tables, headers = _risk_tables(rng), dict(RISK_HEADERS)
    for _ in range(rng.choice([0, 0, 1, 1, 2])):
        _break_risk_table(rng, tables, headers)
    paths = {kind: directory / f"risk{case}-{kind}.csv" for kind in tables}
    for kind, path in paths.items():
        _write_risk_table(rng, path, headers[kind], tables[kind])
    argv = ["risk-curve", "--hazard", str(paths["hazard"]),
            "--vulnerability", str(paths["vulnerability"])]
    if rng.random() < 0.5:
        return argv + ["--loss-csv", str(paths["losses"])]
    return argv + ["--losses", ",".join(",".join(row) for row in tables["losses"])]


def _route_argv(path, argv: list[str], values) -> list[str]:
    path.write_text("month,value\n" + "".join(f"{m},{v!r}\n" for m, v in enumerate(values, 1)))
    return [argv[0], str(path), *argv[1:]]


def _run(argv: list[str]) -> dict:
    """One in-process run: its exit code (or the exception that escaped), output and solves."""
    solves = []
    solve = linreg._solve

    def counting(*args, **kwargs):
        solves.append(None)
        return solve(*args, **kwargs)

    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as patch, warnings.catch_warnings():
        # A warning would be a second stderr line from a process.
        warnings.simplefilter("error")
        patch.setattr(linreg, "_solve", counting)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
        except BaseException as exc:  # an exception escaping main is the fault checked
            code = f"escaped {type(exc).__name__}: {exc}"
    return {"argv": argv, "code": code, "out": out.getvalue(), "err": err.getvalue(),
            "solves": len(solves)}


@pytest.fixture(scope="module")
def sweep(tmp_path_factory) -> list[dict]:
    rng = random.Random(SEED)
    directory = tmp_path_factory.mktemp("sweep")
    runs = []
    for route, (argv, values) in enumerate(KNOWN_ROUTES):
        argv = _route_argv(directory / f"route{route}.csv", argv, values)
        runs.append({**_run([*argv, "--format", "json"]), "n": len(values)})
    for case in range(CASES):
        if rng.random() < 0.1:
            argv = _gev_argv(rng)
            n = None
        else:
            n = rng.choice([0, 1, 2, 3, 4, 5, 8, 12, 31]) if rng.random() < 0.4 \
                else rng.randint(0, 200)
            comma = rng.random() < 0.1
            path = directory / f"case{case}.csv"
            values = _write_series(rng, path, rng.choice(KINDS), n, comma)
            argv = _series_argv(rng, str(path), values, n)
            argv += ["--decimal-comma"] if comma else []
        argv += ["--format", rng.choice(["text", "json"])]
        runs.append({**_run(argv), "n": n})
    rng = random.Random(RISK_SEED)
    for case in range(RISK_CASES):
        argv = _risk_argv(rng, directory, case) + ["--format", rng.choice(["text", "json"])]
        runs.append({**_run(argv), "n": None})
    return runs


def test_sweep_covers_every_outcome(sweep):
    """The sweep is worth running only if it reaches every exit code and command."""
    assert {run["code"] for run in sweep} == {0, 1, 2, 3}
    assert {run["argv"][0] for run in sweep} == {
        "summarize", "peaks", "trend", "ar", "residuals", "analyze", "gev-pdf", "risk-curve"}
    assert {run["code"] for run in sweep if run["argv"][0] == "risk-curve"} >= {0, 1, 2}


def test_every_run_keeps_the_exit_contract(sweep):
    broken = []
    for run in sweep:
        code, out, err = run["code"], run["out"], run["err"]
        if code == 0:
            ok = err == ""
        else:
            ok = (code in (1, 2, 3) and out == "" and err.count("\n") == 1
                  and err.endswith("\n") and err.startswith(PREFIXES[code - 1]))
        if not ok:
            broken.append((run["argv"], code, err[:200]))
    assert broken == []


def test_every_json_output_parses(sweep):
    unparsed = []
    for run in sweep:
        if run["code"] == 0 and "json" in run["argv"][-1:]:
            try:
                json.loads(run["out"])
            except ValueError as exc:
                unparsed.append((run["argv"], str(exc)))
    assert unparsed == []


def test_solves_do_not_grow_with_max_lag_above_max_order(sweep):
    grown = []
    for run in sweep:
        argv = run["argv"]
        if "--max-lag" not in argv:
            continue
        at = argv.index("--max-lag") + 1
        cap = autoreg.max_order(run["n"]) + 1
        if cap >= 1 and int(argv[at]) > cap:
            solves = _run([*argv[:at], str(cap), *argv[at + 1:]])["solves"]
            if solves != run["solves"]:
                grown.append((argv, solves, run["solves"]))
    assert grown == []


def _non_finite(constant: str):
    raise ValueError(f"non-standard JSON constant {constant}")


@pytest.mark.xfail(strict=True, reason=ITEM_5)
def test_every_json_output_is_standard_json(sweep):
    loose = []
    for run in sweep:
        if run["code"] == 0 and "json" in run["argv"][-1:]:
            try:
                json.loads(run["out"], parse_constant=_non_finite)
            except ValueError:
                loose.append(run["argv"])
    assert loose == []


@pytest.mark.xfail(strict=True, reason=ITEM_5)
@pytest.mark.parametrize("argv, values", KNOWN_ROUTES, ids=["analyze-exact-fit", "ar-exact-fit"])
def test_known_route_prints_standard_json(tmp_path, argv, values):
    argv = _route_argv(tmp_path / "series.csv", argv, values)
    run = _run([*argv, "--format", "json"])
    assert (run["code"], run["err"]) == (0, "")
    json.loads(run["out"], parse_constant=_non_finite)


@pytest.mark.parametrize("xi", ["0", "0.5"])
def test_gev_pdf_overflow_is_a_numerical_error(xi):
    # exp(-1) / sigma leaves the doubles; this printed the density Infinity.
    run = _run(["gev-pdf", "--mu", "0", "--sigma", "1e-320", "--xi", xi, "--x", "0",
                "--format", "json"])
    assert (run["code"], run["out"], run["err"]) == (
        3, "", "numerical error: GEV density at x=0.0 overflows a double for scale 1e-320\n")
